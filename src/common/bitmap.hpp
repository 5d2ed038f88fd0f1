// Fixed-width block bitmaps.
//
// A bitmap records which blocks of a page (or of a 16-block page segment)
// have been touched. They are the central metadata currency of Planaria:
// SLP's Pattern History Table stores one per page, TLP compares them to find
// learnable neighbors, and the analysis tools (Figs. 2/4/5) are defined
// directly over them.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/assert.hpp"

namespace planaria {

/// Bitmap over N blocks (N <= 64). Bit i set <=> block i accessed/predicted.
/// The API speaks 64-bit words; storage is the narrowest unsigned type that
/// holds N bits, so a 16-block segment bitmap costs 2 bytes in a table.
template <int N>
class BlockBitmap {
  static_assert(N > 0 && N <= 64, "BlockBitmap supports 1..64 blocks");

  using Storage = std::conditional_t<
      (N <= 8), std::uint8_t,
      std::conditional_t<(N <= 16), std::uint16_t,
                         std::conditional_t<(N <= 32), std::uint32_t,
                                            std::uint64_t>>>;

 public:
  using Word = std::uint64_t;

  constexpr BlockBitmap() = default;
  constexpr explicit BlockBitmap(Word raw)
      : bits_(static_cast<Storage>(raw & mask())) {}

  static constexpr int size() { return N; }
  static constexpr Word mask() {
    return N == 64 ? ~Word{0} : ((Word{1} << N) - 1);
  }

  constexpr void set(int i) {
    PLANARIA_ASSERT(i >= 0 && i < N);
    bits_ = static_cast<Storage>(bits_ | (Word{1} << i));
  }
  constexpr void clear(int i) {
    PLANARIA_ASSERT(i >= 0 && i < N);
    bits_ = static_cast<Storage>(bits_ & ~(Word{1} << i));
  }
  constexpr bool test(int i) const {
    PLANARIA_ASSERT(i >= 0 && i < N);
    return (bits_ >> i) & 1u;
  }
  constexpr void flip(int i) {
    PLANARIA_ASSERT(i >= 0 && i < N);
    bits_ = static_cast<Storage>(bits_ ^ (Word{1} << i));
  }
  constexpr void reset() { bits_ = 0; }

  constexpr int popcount() const { return std::popcount(bits_); }
  constexpr bool empty() const { return bits_ == 0; }
  constexpr Word raw() const { return bits_; }

  /// Number of blocks set in both bitmaps (the paper's "same bits" that are
  /// accessed in both pages; used by TLP's similarity test).
  constexpr int common_with(BlockBitmap other) const {
    return std::popcount(raw() & other.raw());
  }

  /// Number of positions where the two bitmaps differ (Fig. 5's "difference
  /// between the bitmap of two pages").
  constexpr int hamming_distance(BlockBitmap other) const {
    return std::popcount(raw() ^ other.raw());
  }

  /// Blocks set in this bitmap but not in `other` — what TLP prefetches when
  /// transferring a neighbor's pattern ("a bit in entry 0 is 1 but in entry 2
  /// is 0").
  constexpr BlockBitmap minus(BlockBitmap other) const {
    return BlockBitmap(raw() & ~other.raw());
  }

  constexpr BlockBitmap operator&(BlockBitmap o) const { return BlockBitmap(raw() & o.raw()); }
  constexpr BlockBitmap operator|(BlockBitmap o) const { return BlockBitmap(raw() | o.raw()); }
  constexpr BlockBitmap operator^(BlockBitmap o) const { return BlockBitmap(raw() ^ o.raw()); }
  constexpr bool operator==(const BlockBitmap&) const = default;

  /// Index of lowest set bit, or -1 if empty.
  constexpr int first_set() const {
    return bits_ == 0 ? -1 : std::countr_zero(bits_);
  }

  /// Calls `fn(block_index)` for every set bit, in ascending order.
  template <typename Fn>
  constexpr void for_each_set(Fn&& fn) const {
    Word w = bits_;
    while (w != 0) {
      const int i = std::countr_zero(w);
      fn(i);
      w &= w - 1;
    }
  }

  /// "1011..." string, bit 0 first; handy in logs and tests.
  std::string to_string() const {
    std::string s(N, '0');
    for (int i = 0; i < N; ++i) {
      if (test(i)) s[static_cast<std::size_t>(i)] = '1';
    }
    return s;
  }

 private:
  Storage bits_ = 0;
};

/// 16-block segment bitmap used by the per-channel prefetcher tables.
using SegmentBitmap = BlockBitmap<16>;
/// Whole-page bitmap used by the trace analysis tools.
using PageBitmap = BlockBitmap<64>;

}  // namespace planaria
