// Set-associative lookup table with per-set LRU.
//
// The larger hardware tables (SLP's Pattern History Table at thousands of
// entries) are set-associative in real designs, and a full CAM scan of that
// many entries would also be a simulation bottleneck. Keys are hashed to a
// set with a strong 64-bit mixer; each set holds `ways` entries replaced
// LRU. Prefetchers describe only their payload.
//
// Lookups compare only the key's set, as the hardware does. The table is
// stored as columns: keys, recency stamps and payloads, one slot per way, plus
// one valid mask per set (bit w = way w holds a live entry). A probe reads
// only the set's keys and its mask; invalid ways keep a stale key, which the
// mask rejects. Recency is a generation stamp written on touch. Victim
// selection on a miss takes the set's first invalid way, else its minimum
// stamp (lowest way on ties), and save_state emits valid slots in slot order,
// so the eviction order and the snapshot layout are independent of how
// lookups are done.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace planaria {

template <typename Key, typename Payload>
class SetAssocTable {
 public:
  /// Widest set the per-set valid mask can describe.
  static constexpr int kMaxWays = 64;

  SetAssocTable(std::size_t sets, int ways)
      : sets_(sets), ways_(ways),
        keys_(sets * static_cast<std::size_t>(ways)),
        last_use_(keys_.size(), 0),
        payloads_(keys_.size()),
        valid_(sets, 0) {
    PLANARIA_ASSERT(sets > 0 && (sets & (sets - 1)) == 0);
    PLANARIA_ASSERT(ways > 0 && ways <= kMaxWays);
  }

  std::size_t capacity() const { return keys_.size(); }

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
    last_use_[s] = ++tick_;
    return &payloads_[s];
  }

  const Payload* peek(const Key& key) const {
    const std::size_t s = slot_of(key);
    return s == kNone ? nullptr : &payloads_[s];
  }

  /// Inserts key -> payload; returns the evicted (key, payload) if a valid
  /// LRU victim had to make room.
  std::optional<std::pair<Key, Payload>> insert(const Key& key, Payload payload) {
    const std::size_t set = set_of(key);
    const std::size_t base = set * static_cast<std::size_t>(ways_);
    const std::size_t hit = find_in_set(set, key);
    if (hit != kNone) {
      payloads_[hit] = std::move(payload);
      last_use_[hit] = ++tick_;
      return std::nullopt;
    }
    const Mask valid = valid_[set];
    std::optional<std::pair<Key, Payload>> evicted;
    std::size_t victim = base;
    if (valid != full_mask()) {
      victim += static_cast<std::size_t>(__builtin_ctzll(~valid));
      ++live_;
    } else {
      for (std::size_t s = base + 1; s < base + static_cast<std::size_t>(ways_);
           ++s) {
        if (last_use_[s] < last_use_[victim]) victim = s;
      }
      evicted.emplace(keys_[victim], std::move(payloads_[victim]));
    }
    keys_[victim] = key;
    payloads_[victim] = std::move(payload);
    last_use_[victim] = ++tick_;
    valid_[set] = valid | bit(victim - base);
    return evicted;
  }

  std::optional<Payload> erase(const Key& key) {
    const std::size_t s = slot_of(key);
    if (s == kNone) return std::nullopt;
    invalidate(s);
    return std::move(payloads_[s]);
  }

  void clear() {
    std::fill(valid_.begin(), valid_.end(), Mask{0});
    live_ = 0;
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for_each_valid_slot([&](std::size_t i) { fn(keys_[i], payloads_[i]); });
  }

  /// Raw slot access for fault injection and diagnostics: the payload stored
  /// in slot `i` (0..capacity()), or nullptr when that slot is invalid. Does
  /// not touch LRU state — a corrupted entry must not look recently used.
  Payload* payload_at(std::size_t i) {
    PLANARIA_ASSERT(i < keys_.size());
    return is_valid(i) ? &payloads_[i] : nullptr;
  }

  /// Removes entries matching pred and hands them to on_evict. O(capacity);
  /// callers amortize by sweeping periodically.
  template <typename Pred, typename OnEvict>
  void evict_if(Pred&& pred, OnEvict&& on_evict) {
    for_each_valid_slot([&](std::size_t i) {
      if (pred(keys_[i], payloads_[i])) {
        invalidate(i);
        on_evict(keys_[i], std::move(payloads_[i]));
      }
    });
  }

  /// Checkpoint: valid slots in ascending slot order (canonical, so the
  /// encoding is byte-stable across save/load cycles), with the exact LRU
  /// timestamps — replacement decisions after a restore match the
  /// uninterrupted run bit for bit. `sp(w, payload)` encodes one payload.
  /// Templated on the writer type so the common layer never depends on the
  /// snapshot module (snapshot::Reader::fail).
  template <typename Writer, typename SavePayload>
  void save_state(Writer& w, SavePayload&& sp) const {
    w.u64(tick_);
    w.u64(static_cast<std::uint64_t>(live_));
    for_each_valid_slot([&](std::size_t i) {
      w.u64(static_cast<std::uint64_t>(i));
      w.u64(static_cast<std::uint64_t>(keys_[i]));
      w.u64(last_use_[i]);
      sp(w, payloads_[i]);
    });
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
    if (count > keys_.size()) {
      r.fail("set table live count exceeds capacity");
    }
    std::uint64_t prev = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
      const std::uint64_t i = r.u64();
      if (i >= keys_.size() || (n > 0 && i <= prev)) {
        r.fail("set table slot index out of order");
      }
      prev = i;
      const Key key = static_cast<Key>(r.u64());
      const std::size_t set = set_of(key);
      const std::size_t base = set * static_cast<std::size_t>(ways_);
      if (i < base || i >= base + static_cast<std::size_t>(ways_)) {
        r.fail("set table key stored outside its set");
      }
      if (find_in_set(set, key) != kNone) {
        r.fail("set table key resident twice");
      }
      last_use_[i] = r.u64();
      if (last_use_[i] > tick_) {
        r.fail("set table last use is ahead of the table tick");
      }
      payloads_[i] = lp(r);
      keys_[i] = key;
      valid_[set] |= bit(i - base);
      ++live_;
    }
  }

 private:
  using Mask = std::uint64_t;
  static constexpr std::size_t kNone = ~std::size_t{0};

  static Mask bit(std::size_t way) { return Mask{1} << way; }
  Mask full_mask() const {
    return ways_ == kMaxWays ? ~Mask{0}
                             : bit(static_cast<std::size_t>(ways_)) - 1;
  }

  bool is_valid(std::size_t slot) const {
    const std::size_t ways = static_cast<std::size_t>(ways_);
    return ((valid_[slot / ways] >> (slot % ways)) & 1) != 0;
  }

  void invalidate(std::size_t slot) {
    const std::size_t ways = static_cast<std::size_t>(ways_);
    valid_[slot / ways] &= ~bit(slot % ways);
    --live_;
  }

  /// Calls fn(slot) for every valid slot in ascending slot order (set by set,
  /// way by way). The mask is read once per set, so fn may invalidate `slot`.
  template <typename Fn>
  void for_each_valid_slot(Fn&& fn) const {
    const std::size_t ways = static_cast<std::size_t>(ways_);
    for (std::size_t set = 0; set < sets_; ++set) {
      for (Mask m = valid_[set]; m != 0; m &= m - 1) {
        fn(set * ways + static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    }
  }

  std::size_t scanned_size() const {
    std::size_t n = 0;
    for (const Mask m : valid_) {
      n += static_cast<std::size_t>(__builtin_popcountll(m));
    }
    return n;
  }

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  /// The set `key` hashes to.
  std::size_t set_of(const Key& key) const {
    return mix(static_cast<std::uint64_t>(key)) & (sets_ - 1);
  }

  /// Slot of the valid entry holding `key` in `set`, or kNone. Scans the
  /// set's keys; a stale key on an invalid way is rejected by the set's mask.
  std::size_t find_in_set(std::size_t set, const Key& key) const {
    const std::size_t base = set * static_cast<std::size_t>(ways_);
    const Key* tags = keys_.data() + base;
    for (int w = 0; w < ways_; ++w) {
      if (tags[w] == key && ((valid_[set] >> w) & 1) != 0) {
        return base + static_cast<std::size_t>(w);
      }
    }
    return kNone;
  }

  std::size_t slot_of(const Key& key) const {
    return find_in_set(set_of(key), key);
  }

  std::size_t sets_;
  int ways_;
  std::vector<Key> keys_;                 ///< key column, `ways_` per set
  std::vector<std::uint64_t> last_use_;   ///< recency stamp column
  std::vector<Payload> payloads_;         ///< payload column
  std::vector<Mask> valid_;               ///< per-set valid mask
  std::uint64_t tick_ = 0;
  std::size_t live_ = 0;
};

}  // namespace planaria
