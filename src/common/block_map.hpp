// Open-addressing block -> value map for the MSHR-style in-flight tables.
//
// The per-channel in-flight table lives on the per-record spine: every demand
// miss and every accepted prefetch inserts an entry, every DRAM completion
// looks it up and erases it. A node-based std::unordered_map pays one heap
// allocation and one free per miss, which at millions of records per second
// is a measurable slice of the hot loop. This map stores entries inline in a
// flat cell array (linear probing, backward-shift deletion — same discipline
// as TagIndex), so steady-state insert/erase churn touches no allocator at
// all once the table has grown to its working size.
//
// Unordered like the container it replaces: callers that serialize must
// collect-and-sort keys (the simulator already does), and range iteration is
// only for order-independent reductions. Key 0 is a legal block number, so
// occupancy is a separate flag, not a sentinel key.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace planaria::common {

/// Splitmix-style finalizer (same mixer as TagIndex): block numbers are dense
/// sequences that would cluster badly under identity hashing.
inline std::uint64_t mix_block(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

template <typename T>
class BlockMap {
 public:
  BlockMap() { rehash(kMinCapacity); }

  /// Value for `key`, or nullptr. Pointers are invalidated by any mutation.
  T* find(std::uint64_t key) {
    std::size_t i = bucket(key);
    for (;;) {
      Cell& c = cells_[i];
      if (!c.used) return nullptr;
      if (c.key == key) return &c.value;
      i = (i + 1) & mask_;
    }
  }
  const T* find(std::uint64_t key) const {
    return const_cast<BlockMap*>(this)->find(key);
  }

  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Inserts `key` -> `value`; the key must be absent (callers dispatch the
  /// present case beforehand, mirroring the emplace-after-count pattern the
  /// std::unordered_map call sites used).
  void insert(std::uint64_t key, T value) {
    PLANARIA_DASSERT(find(key) == nullptr);
    if ((size_ + 1) * 2 > cells_.size()) rehash(cells_.size() * 2);
    std::size_t i = bucket(key);
    while (cells_[i].used) i = (i + 1) & mask_;
    cells_[i].key = key;
    cells_[i].value = std::move(value);
    cells_[i].used = true;
    ++size_;
  }

  /// Removes `key` if present. Backward-shift deletion keeps probe chains
  /// intact without tombstones, so load factor — and probe length — never
  /// degrades under churn.
  void erase(std::uint64_t key) {
    std::size_t i = bucket(key);
    for (;;) {
      if (!cells_[i].used) return;
      if (cells_[i].key == key) break;
      i = (i + 1) & mask_;
    }
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!cells_[j].used) break;
      const std::size_t home = bucket(cells_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole].key = cells_[j].key;
        cells_[hole].value = std::move(cells_[j].value);
        hole = j;
      }
    }
    cells_[hole].used = false;
    cells_[hole].value = T{};
    --size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    for (Cell& c : cells_) {
      if (c.used) {
        c.used = false;
        c.value = T{};
      }
    }
    size_ = 0;
  }

  /// Order-independent visitation of every (key, value) pair. Deliberately
  /// not an iterator: the unordered order must never leak into an encoding,
  /// and a callback keeps call sites explicit about that.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.used) fn(c.key, c.value);
    }
  }

 private:
  struct Cell {
    std::uint64_t key = 0;
    T value{};
    bool used = false;
  };

  static constexpr std::size_t kMinCapacity = 16;

  std::size_t bucket(std::uint64_t key) const {
    return static_cast<std::size_t>(mix_block(key)) & mask_;
  }

  void rehash(std::size_t want) {
    // lint: suppress(hot-alloc) doubling rehash is amortized O(1) per insert; steady state never re-enters
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(want, Cell{});
    mask_ = want - 1;
    for (Cell& c : old) {
      if (!c.used) continue;
      std::size_t i = bucket(c.key);
      while (cells_[i].used) i = (i + 1) & mask_;
      cells_[i].key = c.key;
      cells_[i].value = std::move(c.value);
      cells_[i].used = true;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace planaria::common
