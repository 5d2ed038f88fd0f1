// Set-associative lookup table with per-set LRU.
//
// The larger hardware tables (SLP's Pattern History Table at thousands of
// entries, SPP's Signature Table) are set-associative in real designs, and a
// full CAM scan of that many entries would also be a simulation bottleneck.
// Keys are hashed to a set with a strong 64-bit mixer; each set holds `ways`
// entries replaced LRU. Same payload-centric interface as LruTable.
//
// Lookups compare only the key's set, as the hardware does. Keys live in a
// separate tag column (SoA, the SystemCache layout): one set is `ways`
// consecutive keys, one or two cache lines, and a tag match is confirmed
// against the entry's valid flag because invalid ways keep a stale key.
// Recency is a generation stamp written on touch. Victim selection on a miss
// walks the same set's ways (first invalid way, else minimum last_use), and
// save_state emits valid slots in slot order, so the eviction order and the
// snapshot layout are independent of how lookups are done.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace planaria {

template <typename Key, typename Payload>
class SetAssocTable {
 public:
  SetAssocTable(std::size_t sets, int ways)
      : sets_(sets), ways_(ways),
        entries_(sets * static_cast<std::size_t>(ways)),
        keys_(entries_.size()) {
    PLANARIA_ASSERT(sets > 0 && (sets & (sets - 1)) == 0);
    PLANARIA_ASSERT(ways > 0);
  }

  std::size_t capacity() const { return entries_.size(); }

  /// Live entry count, maintained incrementally (size() used to rescan all
  /// entries, an O(capacity) cost per call that dwarfed the operation being
  /// checked when contracts probe occupancy on hot paths). Debug builds
  /// cross-check the counter against a full scan.
  std::size_t size() const {
    PLANARIA_DASSERT(live_ == scanned_size());
    return live_;
  }

  Payload* find(const Key& key) {
    const std::size_t s = slot_of(key);
    if (s == kNone) return nullptr;
    Entry& e = entries_[s];
    e.last_use = ++tick_;
    return &e.payload;
  }

  const Payload* peek(const Key& key) const {
    const std::size_t s = slot_of(key);
    return s == kNone ? nullptr : &entries_[s].payload;
  }

  /// Inserts key -> payload; returns the evicted (key, payload) if a valid
  /// LRU victim had to make room.
  std::optional<std::pair<Key, Payload>> insert(const Key& key, Payload payload) {
    const std::size_t base = set_base(key);
    const std::size_t hit = find_in_set(base, key);
    if (hit != kNone) {
      Entry& e = entries_[hit];
      e.payload = std::move(payload);
      e.last_use = ++tick_;
      return std::nullopt;
    }
    std::size_t victim = kNone;
    for (std::size_t s = base; s < base + static_cast<std::size_t>(ways_); ++s) {
      const Entry& e = entries_[s];
      if (!e.valid) {
        if (victim == kNone || entries_[victim].valid) victim = s;
      } else if (victim == kNone || (entries_[victim].valid &&
                                     e.last_use < entries_[victim].last_use)) {
        victim = s;
      }
    }
    PLANARIA_ASSERT(victim != kNone);
    Entry& v = entries_[victim];
    std::optional<std::pair<Key, Payload>> evicted;
    if (v.valid) {
      evicted.emplace(keys_[victim], std::move(v.payload));
    } else {
      ++live_;
    }
    keys_[victim] = key;
    v.payload = std::move(payload);
    v.last_use = ++tick_;
    v.valid = true;
    return evicted;
  }

  std::optional<Payload> erase(const Key& key) {
    const std::size_t s = slot_of(key);
    if (s == kNone) return std::nullopt;
    Entry& e = entries_[s];
    e.valid = false;
    --live_;
    return std::move(e.payload);
  }

  void clear() {
    for (auto& e : entries_) e.valid = false;
    live_ = 0;
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].valid) fn(keys_[i], entries_[i].payload);
    }
  }

  /// Raw slot access for fault injection and diagnostics: the payload stored
  /// in slot `i` (0..capacity()), or nullptr when that slot is invalid. Does
  /// not touch LRU state — a corrupted entry must not look recently used.
  Payload* payload_at(std::size_t i) {
    PLANARIA_ASSERT(i < entries_.size());
    return entries_[i].valid ? &entries_[i].payload : nullptr;
  }

  /// Removes entries matching pred and hands them to on_evict. O(capacity);
  /// callers amortize by sweeping periodically.
  template <typename Pred, typename OnEvict>
  void evict_if(Pred&& pred, OnEvict&& on_evict) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      if (e.valid && pred(keys_[i], e.payload)) {
        e.valid = false;
        --live_;
        on_evict(keys_[i], std::move(e.payload));
      }
    }
  }

  /// Checkpoint: valid slots in ascending slot order (canonical, so the
  /// encoding is byte-stable across save/load cycles), with the exact LRU
  /// timestamps — replacement decisions after a restore match the
  /// uninterrupted run bit for bit. `sp(w, payload)` encodes one payload.
  /// Templated on the writer type so the common layer never depends on the
  /// snapshot module (see common/table.hpp).
  template <typename Writer, typename SavePayload>
  void save_state(Writer& w, SavePayload&& sp) const {
    w.u64(tick_);
    w.u64(static_cast<std::uint64_t>(live_));
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (!e.valid) continue;
      w.u64(static_cast<std::uint64_t>(i));
      w.u64(static_cast<std::uint64_t>(keys_[i]));
      w.u64(e.last_use);
      sp(w, e.payload);
    }
  }

  /// Restore counterpart; `lp(r)` decodes one payload. Geometry must match
  /// the constructed table. `r.fail` (which must not return) rejects what no
  /// run of this table could have saved: slot indices out of range,
  /// descending or duplicated, a key stored outside the set its hash selects
  /// (lookups scan only that set and would never find it), a key resident
  /// twice, or a stamp ahead of the restored tick.
  template <typename Reader, typename LoadPayload>
  void load_state(Reader& r, LoadPayload&& lp) {
    clear();
    tick_ = r.u64();
    const std::uint64_t count = r.u64();
    if (count > entries_.size()) {
      r.fail("set table live count exceeds capacity");
    }
    std::uint64_t prev = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
      const std::uint64_t i = r.u64();
      if (i >= entries_.size() || (n > 0 && i <= prev)) {
        r.fail("set table slot index out of order");
      }
      prev = i;
      const Key key = static_cast<Key>(r.u64());
      const std::size_t base = set_base(key);
      if (i < base || i >= base + static_cast<std::size_t>(ways_)) {
        r.fail("set table key stored outside its set");
      }
      if (find_in_set(base, key) != kNone) {
        r.fail("set table key resident twice");
      }
      Entry& e = entries_[i];
      e.last_use = r.u64();
      if (e.last_use > tick_) {
        r.fail("set table last use is ahead of the table tick");
      }
      e.payload = lp(r);
      keys_[i] = key;
      e.valid = true;
      ++live_;
    }
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t scanned_size() const {
    std::size_t n = 0;
    for (const auto& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }
  struct Entry {
    Payload payload{};
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  /// First slot of the set `key` hashes to.
  std::size_t set_base(const Key& key) const {
    const std::size_t set = mix(static_cast<std::uint64_t>(key)) & (sets_ - 1);
    return set * static_cast<std::size_t>(ways_);
  }

  /// Slot of the valid entry holding `key` in the set starting at `base`, or
  /// kNone. Scans the set's tag column; a stale tag on an invalid way is
  /// rejected by the entry's valid flag.
  std::size_t find_in_set(std::size_t base, const Key& key) const {
    const Key* tags = keys_.data() + base;
    for (int w = 0; w < ways_; ++w) {
      const std::size_t s = base + static_cast<std::size_t>(w);
      if (tags[w] == key && entries_[s].valid) return s;
    }
    return kNone;
  }

  std::size_t slot_of(const Key& key) const {
    return find_in_set(set_base(key), key);
  }

  std::size_t sets_;
  int ways_;
  std::vector<Entry> entries_;
  std::vector<Key> keys_;  ///< tag column: keys_[i] is entries_[i]'s key
  std::uint64_t tick_ = 0;
  std::size_t live_ = 0;
};

}  // namespace planaria
