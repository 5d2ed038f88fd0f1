// Generic fixed-capacity, fully-associative, LRU-evicting lookup table.
//
// All of Planaria's metadata structures (Filter Table, Accumulation Table,
// Pattern History Table, Recent Page Table) and SPP's signature/pattern
// tables are hardware tables of this shape: a small number of entries,
// content-addressed by a key (page number or signature), replaced LRU. The
// template centralizes the bookkeeping so each prefetcher only describes its
// payload, and gives tests one well-covered implementation to rely on.
//
// Hardware probes every entry (a CAM), but the simulation does not have to:
// an open-addressing TagIndex shadows the valid entries, making find / peek /
// erase / hit-insert O(1). Recency is generation-stamped (a monotonic tick
// per touch, no list reordering), so a hit writes one word. The slot array,
// the eviction rule (first invalid slot in slot order, else minimum
// last_use), and the save_state byte layout are unchanged from the linear
// implementation — tests/test_perf_structures.cpp pins the two against each
// other over randomized op sequences.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/tag_index.hpp"

namespace planaria {

template <typename Key, typename Payload>
class LruTable {
 public:
  struct Entry {
    Key key{};
    Payload payload{};
    std::uint64_t last_use = 0;  ///< LRU timestamp (monotonic probe counter)
    bool valid = false;
  };

  explicit LruTable(std::size_t capacity)
      : entries_(capacity), index_(capacity) {
    PLANARIA_ASSERT(capacity > 0);
    reset_free();
  }

  std::size_t capacity() const { return entries_.size(); }

  /// Live entry count, maintained incrementally (a rescan here is O(capacity)
  /// per call; occupancy contracts probe this on hot paths). Debug builds
  /// cross-check the counter against a full scan.
  std::size_t size() const {
    PLANARIA_DASSERT(live_ == scanned_size());
    return live_;
  }

  /// Looks up `key`; refreshes LRU on hit. Returns nullptr on miss.
  Payload* find(const Key& key) {
    const std::uint32_t s = index_.find(static_cast<std::uint64_t>(key));
    if (s == TagIndex::npos) return nullptr;
    Entry& e = entries_[s];
    e.last_use = ++tick_;
    return &e.payload;
  }

  /// Lookup without touching LRU state (for inspection in tests/analysis).
  const Payload* peek(const Key& key) const {
    const std::uint32_t s = index_.find(static_cast<std::uint64_t>(key));
    return s == TagIndex::npos ? nullptr : &entries_[s].payload;
  }

  /// Inserts (or overwrites) key -> payload. If the table is full, evicts the
  /// LRU entry and returns it so the caller can run its eviction hook (SLP
  /// promotes evicted Accumulation Table bitmaps into the Pattern History
  /// Table this way).
  std::optional<Entry> insert(const Key& key, Payload payload) {
    const std::uint32_t hit = index_.find(static_cast<std::uint64_t>(key));
    if (hit != TagIndex::npos) {
      Entry& e = entries_[hit];
      e.payload = std::move(payload);
      e.last_use = ++tick_;
      return std::nullopt;
    }
    std::optional<Entry> evicted;
    std::size_t slot;
    if (live_ < entries_.size()) {
      // Lowest-indexed free slot: identical victim to the linear scan's
      // "first invalid entry in slot order".
      std::pop_heap(free_.begin(), free_.end(), std::greater<>{});
      slot = free_.back();
      free_.pop_back();
      ++live_;
    } else {
      slot = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].last_use < entries_[slot].last_use) slot = i;
      }
      Entry& v = entries_[slot];
      index_.erase(static_cast<std::uint64_t>(v.key));
      evicted = std::move(v);
    }
    Entry& e = entries_[slot];
    e.key = key;
    e.payload = std::move(payload);
    e.last_use = ++tick_;
    e.valid = true;
    index_.insert(static_cast<std::uint64_t>(key),
                  static_cast<std::uint32_t>(slot));
    return evicted;
  }

  /// Removes `key`; returns its payload if present.
  std::optional<Payload> erase(const Key& key) {
    const std::uint32_t s = index_.find(static_cast<std::uint64_t>(key));
    if (s == TagIndex::npos) return std::nullopt;
    Entry& e = entries_[s];
    e.valid = false;
    --live_;
    index_.erase(static_cast<std::uint64_t>(key));
    free_.push_back(s);
    std::push_heap(free_.begin(), free_.end(), std::greater<>{});
    return std::move(e.payload);
  }

  void clear() {
    for (auto& e : entries_) e.valid = false;
    tick_ = 0;
    live_ = 0;
    index_.clear();
    reset_free();
  }

  /// Calls fn(key, payload&) for every valid entry. Iteration order is slot
  /// order, not recency order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& e : entries_) {
      if (e.valid) fn(e.key, e.payload);
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& e : entries_) {
      if (e.valid) fn(e.key, e.payload);
    }
  }

  /// Removes every entry for which pred(key, payload) is true and calls
  /// on_evict(key, payload&&) for each. Used for timeout-based eviction.
  template <typename Pred, typename OnEvict>
  void evict_if(Pred&& pred, OnEvict&& on_evict) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      if (e.valid && pred(e.key, e.payload)) {
        e.valid = false;
        --live_;
        index_.erase(static_cast<std::uint64_t>(e.key));
        free_.push_back(static_cast<std::uint32_t>(i));
        std::push_heap(free_.begin(), free_.end(), std::greater<>{});
        on_evict(e.key, std::move(e.payload));
      }
    }
  }

  /// Checkpoint: valid slots in ascending slot order with exact LRU
  /// timestamps, mirroring SetAssocTable::save_state (same canonical,
  /// byte-stable layout guarantees). Templated on the writer type so the
  /// common layer never depends on the snapshot module (the layering DAG in
  /// tools/lint/layers.conf forbids that edge); any encoder with the
  /// snapshot::Writer integer interface works.
  template <typename Writer, typename SavePayload>
  void save_state(Writer& w, SavePayload&& sp) const {
    w.u64(tick_);
    w.u64(static_cast<std::uint64_t>(live_));
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (!e.valid) continue;
      w.u64(static_cast<std::uint64_t>(i));
      w.u64(static_cast<std::uint64_t>(e.key));
      w.u64(e.last_use);
      sp(w, e.payload);
    }
  }

  /// Restore counterpart; malformed input is rejected through
  /// `r.fail(message)`, which must not return (snapshot::Reader throws
  /// SnapshotError): slot indices out of range, descending or duplicated, a
  /// key resident twice, or a stamp ahead of the restored tick.
  template <typename Reader, typename LoadPayload>
  void load_state(Reader& r, LoadPayload&& lp) {
    clear();
    tick_ = r.u64();
    const std::uint64_t count = r.u64();
    if (count > entries_.size()) {
      r.fail("lru table live count exceeds capacity");
    }
    std::uint64_t prev = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
      const std::uint64_t i = r.u64();
      if (i >= entries_.size() || (n > 0 && i <= prev)) {
        r.fail("lru table slot index out of order");
      }
      prev = i;
      Entry& e = entries_[i];
      e.key = static_cast<Key>(r.u64());
      if (index_.find(static_cast<std::uint64_t>(e.key)) != TagIndex::npos) {
        r.fail("lru table key resident twice");
      }
      e.last_use = r.u64();
      if (e.last_use > tick_) {
        r.fail("lru table last use is ahead of the table tick");
      }
      e.payload = lp(r);
      e.valid = true;
      index_.insert(static_cast<std::uint64_t>(e.key),
                    static_cast<std::uint32_t>(i));
    }
    live_ = static_cast<std::size_t>(count);
    rebuild_free();
  }

 private:
  std::size_t scanned_size() const {
    std::size_t n = 0;
    for (const auto& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }

  void reset_free() {
    free_.resize(entries_.size());
    for (std::size_t i = 0; i < free_.size(); ++i) {
      free_[i] = static_cast<std::uint32_t>(i);
    }
    // Ascending order is already a valid min-heap.
  }

  void rebuild_free() {
    free_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].valid) free_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::vector<Entry> entries_;
  TagIndex index_;
  std::vector<std::uint32_t> free_;  ///< min-heap of invalid slot indices
  std::uint64_t tick_ = 0;
  std::size_t live_ = 0;
};

}  // namespace planaria
