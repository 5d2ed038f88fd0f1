// Open-addressing key -> slot index for the fully-associative tables.
//
// The hardware tables (SPP's Signature Table, TLP's Recent Page Table) are
// CAMs: a probe compares every entry. Exact at hardware scale, but a
// simulation bottleneck once the probe sits on the per-record spine. This
// index shadows a table's valid entries with an open-addressing hash (linear
// probing, backward-shift deletion) so lookups cost O(1) while the table
// itself keeps its slot array
// — and therefore its eviction order and PLNSNAP1 serialization —
// byte-for-byte unchanged. Set-associative tables (SetAssocTable, the SC tag
// array) need no index: they scan the ways of one set.
//
// Capacity is fixed at construction (at least `cells_per_entry` times the
// owning table's slot count, default 2, rounded to a power of two), so the
// load factor never exceeds 1/cells_per_entry and the index never rehashes
// mid-run. Deletion uses backward shifting instead of tombstones: probe
// distance stays bounded regardless of churn.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace planaria {

class TagIndex {
 public:
  static constexpr std::uint32_t npos = 0xFFFFFFFFu;

  /// Empty index (capacity 0); assign a sized one before use. Exists so
  /// owners whose geometry is validated in the constructor body can
  /// default-construct the member first.
  TagIndex() : cells_(1), mask_(0) {}

  explicit TagIndex(std::size_t table_capacity,
                    std::size_t cells_per_entry = 2) {
    std::size_t want = 8;
    while (want < table_capacity * cells_per_entry) want <<= 1;
    cells_.resize(want);
    mask_ = want - 1;
  }

  /// Slot holding `key`, or npos. Never touches the owning table's LRU state.
  std::uint32_t find(std::uint64_t key) const {
    std::size_t i = bucket(key);
    for (;;) {
      const Cell& c = cells_[i];
      if (c.slot == npos) return npos;
      if (c.key == key) return c.slot;
      i = (i + 1) & mask_;
    }
  }

  /// Key must be absent (the owning table dispatches hits beforehand).
  void insert(std::uint64_t key, std::uint32_t slot) {
    PLANARIA_DASSERT(slot != npos);
    PLANARIA_DASSERT(find(key) == npos);
    std::size_t i = bucket(key);
    while (cells_[i].slot != npos) i = (i + 1) & mask_;
    cells_[i].key = key;
    cells_[i].slot = slot;
  }

  /// Removes `key` if present (backward-shift deletion keeps probe chains
  /// intact without tombstones).
  void erase(std::uint64_t key) {
    std::size_t i = bucket(key);
    for (;;) {
      if (cells_[i].slot == npos) return;
      if (cells_[i].key == key) break;
      i = (i + 1) & mask_;
    }
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (cells_[j].slot == npos) break;
      const std::size_t home = bucket(cells_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].slot = npos;
  }

  void clear() {
    for (Cell& c : cells_) c.slot = npos;
  }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t slot = npos;
  };

  // Same 64-bit mixer the set-associative tables hash with: keys are page
  // numbers / block numbers, i.e. dense sequences that would cluster badly
  // under identity hashing.
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  std::size_t bucket(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
};

}  // namespace planaria
