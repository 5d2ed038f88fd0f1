// Unit tests for the common substrate: geometry, bitmaps, RNG, tables,
// CRC-32, the environment-integer parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "common/crc32.hpp"
#include "common/env.hpp"
#include "common/huge_pages.hpp"
#include "common/rng.hpp"
#include "common/set_table.hpp"
#include "common/types.hpp"
#include "reference_crc32.hpp"

namespace planaria {
namespace {

// ---------------------------------------------------------------- geometry

TEST(AddressGeometry, BlockAlignmentMasksLowBits) {
  EXPECT_EQ(addr::block_align(0x1234'5678), 0x1234'5640u);
  EXPECT_EQ(addr::block_align(0x40), 0x40u);
  EXPECT_EQ(addr::block_align(0x3F), 0x0u);
}

TEST(AddressGeometry, PageNumberIsAddressOver4K) {
  EXPECT_EQ(addr::page_number(0x0), 0u);
  EXPECT_EQ(addr::page_number(0xFFF), 0u);
  EXPECT_EQ(addr::page_number(0x1000), 1u);
  EXPECT_EQ(addr::page_number(0xDEAD'F000), 0xDEADFu);
}

TEST(AddressGeometry, BlockInPageCoversAll64Blocks) {
  std::set<int> seen;
  for (Address a = 0; a < kPageBytes; a += kBlockBytes) {
    seen.insert(addr::block_in_page(a));
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 63);
}

TEST(AddressGeometry, ChannelMapSplitsPageIntoFourSegments) {
  // Blocks 0-15 -> channel 0, 16-31 -> 1, 32-47 -> 2, 48-63 -> 3.
  for (int block = 0; block < kBlocksPerPage; ++block) {
    const Address a = addr::compose(7, block);
    EXPECT_EQ(addr::channel_of(a), block / 16) << "block " << block;
    EXPECT_EQ(addr::block_in_segment(a), block % 16) << "block " << block;
  }
}

TEST(AddressGeometry, ComposeRoundTrips) {
  const PageNumber pn = 0xABCDE;
  for (int block = 0; block < kBlocksPerPage; ++block) {
    const Address a = addr::compose(pn, block);
    EXPECT_EQ(addr::page_number(a), pn);
    EXPECT_EQ(addr::block_in_page(a), block);
  }
}

TEST(AddressGeometry, ComposeSegmentMatchesCompose) {
  for (int ch = 0; ch < kChannels; ++ch) {
    for (int b = 0; b < kBlocksPerSegment; ++b) {
      const Address a = addr::compose_segment(0x42, ch, b);
      EXPECT_EQ(addr::channel_of(a), ch);
      EXPECT_EQ(addr::block_in_segment(a), b);
    }
  }
}

TEST(AddressGeometry, DeviceNamesAreDistinct) {
  std::set<std::string> names;
  for (int d = 0; d < static_cast<int>(DeviceId::kCount); ++d) {
    names.insert(device_name(static_cast<DeviceId>(d)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(DeviceId::kCount));
}

// ------------------------------------------------------------------ bitmap

TEST(BlockBitmap, StartsEmpty) {
  SegmentBitmap bm;
  EXPECT_TRUE(bm.empty());
  EXPECT_EQ(bm.popcount(), 0);
  EXPECT_EQ(bm.first_set(), -1);
}

TEST(BlockBitmap, SetTestClear) {
  SegmentBitmap bm;
  bm.set(3);
  bm.set(15);
  EXPECT_TRUE(bm.test(3));
  EXPECT_TRUE(bm.test(15));
  EXPECT_FALSE(bm.test(4));
  EXPECT_EQ(bm.popcount(), 2);
  bm.clear(3);
  EXPECT_FALSE(bm.test(3));
  EXPECT_EQ(bm.popcount(), 1);
}

TEST(BlockBitmap, RawConstructorMasksToWidth) {
  SegmentBitmap bm(0xFFFF'FFFFull);
  EXPECT_EQ(bm.popcount(), 16);
  EXPECT_EQ(bm.raw(), 0xFFFFull);
}

TEST(BlockBitmap, CommonAndHamming) {
  SegmentBitmap a(0b1111'0000'1111'0000);
  SegmentBitmap b(0b1010'0000'1111'1111);
  EXPECT_EQ(a.common_with(b), 6);
  EXPECT_EQ(a.hamming_distance(b), 6);
  EXPECT_EQ(a.hamming_distance(a), 0);
}

TEST(BlockBitmap, MinusKeepsOnlyExclusiveBits) {
  SegmentBitmap a(0b1100);
  SegmentBitmap b(0b1010);
  EXPECT_EQ(a.minus(b).raw(), 0b0100u);
  EXPECT_EQ(b.minus(a).raw(), 0b0010u);
  EXPECT_TRUE(a.minus(a).empty());
}

TEST(BlockBitmap, ForEachSetVisitsAscending) {
  SegmentBitmap bm;
  bm.set(1);
  bm.set(7);
  bm.set(14);
  std::vector<int> visited;
  bm.for_each_set([&](int i) { visited.push_back(i); });
  EXPECT_EQ(visited, (std::vector<int>{1, 7, 14}));
}

TEST(BlockBitmap, ToStringPutsBitZeroFirst) {
  BlockBitmap<4> bm;
  bm.set(0);
  bm.set(3);
  EXPECT_EQ(bm.to_string(), "1001");
}

TEST(BlockBitmap, FullWidth64Works) {
  PageBitmap bm;
  for (int i = 0; i < 64; ++i) bm.set(i);
  EXPECT_EQ(bm.popcount(), 64);
  EXPECT_EQ(bm.raw(), ~0ull);
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(17);
  std::uint64_t low = 0, high = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto r = rng.next_zipf(1000, 0.9);
    ASSERT_LT(r, 1000u);
    if (r < 100) ++low;
    if (r >= 900) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(Rng, BurstLengthRespectsCap) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const int len = rng.burst_length(0.9, 5);
    EXPECT_GE(len, 1);
    EXPECT_LE(len, 5);
  }
}

// ----------------------------------------------------------- SetAssocTable

TEST(SetAssocTable, InsertFindErase) {
  SetAssocTable<std::uint64_t, int> t(8, 2);
  EXPECT_EQ(t.capacity(), 16u);
  t.insert(100, 1);
  ASSERT_NE(t.find(100), nullptr);
  EXPECT_EQ(*t.find(100), 1);
  EXPECT_TRUE(t.erase(100).has_value());
  EXPECT_EQ(t.find(100), nullptr);
}

TEST(SetAssocTable, EvictsWithinSetOnly) {
  // 1 set x 2 ways: third insert must evict the LRU of the two.
  SetAssocTable<std::uint64_t, int> t(1, 2);
  t.insert(1, 10);
  t.insert(2, 20);
  t.find(1);
  const auto evicted = t.insert(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 2u);
}

TEST(SetAssocTable, SizeCountsValidEntries) {
  SetAssocTable<std::uint64_t, int> t(4, 4);
  for (std::uint64_t k = 0; k < 10; ++k) t.insert(k, 1);
  EXPECT_LE(t.size(), 10u);
  // Even if every key hashed to one set, that set retains its 4 ways.
  EXPECT_GE(t.size(), 4u);
}

TEST(SetAssocTable, ForEachVisitsAll) {
  SetAssocTable<std::uint64_t, int> t(4, 2);
  t.insert(1, 1);
  t.insert(2, 2);
  int sum = 0;
  t.for_each([&](std::uint64_t, int& v) { sum += v; });
  EXPECT_EQ(sum, 3);
}

TEST(SetAssocTable, EvictIfSweeps) {
  SetAssocTable<std::uint64_t, int> t(4, 2);
  for (std::uint64_t k = 0; k < 6; ++k) t.insert(k, static_cast<int>(k));
  std::size_t evicted = 0;
  t.evict_if([](std::uint64_t, const int& v) { return v >= 3; },
             [&](std::uint64_t, int&&) { ++evicted; });
  t.for_each([](std::uint64_t, int& v) { EXPECT_LT(v, 3); });
  EXPECT_GE(evicted, 1u);
}

// ------------------------------------------------------------ parse_env_uint

TEST(ParseEnvUint, UnsetOrEmptyYieldsNothing) {
  EXPECT_FALSE(common::parse_env_uint("X", nullptr, 0, 10).has_value());
  EXPECT_FALSE(common::parse_env_uint("X", "", 0, 10).has_value());
}

TEST(ParseEnvUint, AcceptsDigitsInsideTheRange) {
  EXPECT_EQ(common::parse_env_uint("X", "0", 0, 10), 0u);
  EXPECT_EQ(common::parse_env_uint("X", "10", 0, 10), 10u);
  EXPECT_EQ(common::parse_env_uint("X", "007", 1, 10), 7u);
  EXPECT_EQ(common::parse_env_uint("X", "18446744073709551615", 0, UINT64_MAX),
            UINT64_MAX);
}

TEST(ParseEnvUint, RejectsSignsSpacesSuffixesOverflowAndRange) {
  for (const char* bad : {"-1", "+4", " 4", "4 ", "abc", "12x", "4.5", "0x10",
                          "18446744073709551616", "99999999999999999999999",
                          "11"}) {
    try {
      common::parse_env_uint("PLANARIA_KNOB", bad, 1, 10);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("PLANARIA_KNOB"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(common::parse_env_uint("X", "0", 1, 10), std::invalid_argument);
}

TEST(ParseUint, TakesExactlyTheDigitsOfItsBase) {
  EXPECT_EQ(common::parse_uint("0"), 0u);
  EXPECT_EQ(common::parse_uint("4096"), 4096u);
  EXPECT_EQ(common::parse_uint("ffFF", 16), 0xFFFFu);
  EXPECT_EQ(common::parse_uint("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-5", "+7", " 12", "12 ", "12abc", "0x10",
                          "18446744073709551616", "1.5"}) {
    EXPECT_FALSE(common::parse_uint(bad).has_value()) << bad;
  }
  EXPECT_FALSE(common::parse_uint("fg", 16).has_value());
  EXPECT_FALSE(common::parse_uint("0x10", 16).has_value());
  EXPECT_FALSE(common::parse_uint("-1", 16).has_value());
}

// ------------------------------------------------------------------ CRC-32

std::vector<char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<char> out(n);
  for (char& c : out) c = static_cast<char>(rng.next() & 0xFFu);
  return out;
}

TEST(Crc32, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(common::crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(common::crc32(nullptr, 0), 0u);
  EXPECT_EQ(common::Crc32().value(), 0u);
}

/// Both CRC paths, called directly so a host with PCLMULQDQ still exercises
/// the portable one. Each advances a raw (pre-final-XOR) register.
struct CrcPath {
  const char* name;
  std::uint32_t (*run)(std::uint32_t, const std::uint8_t*, std::size_t);
};

std::vector<CrcPath> crc_paths() {
  std::vector<CrcPath> paths = {{"portable", common::detail::crc32_portable}};
  if (common::detail::crc32_folded_available()) {
    paths.push_back({"folded", common::detail::crc32_folded});
  }
  return paths;
}

std::uint32_t crc_via(const CrcPath& path, const char* p, std::size_t len) {
  return path.run(0xFFFFFFFFu, reinterpret_cast<const std::uint8_t*>(p), len) ^
         0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // 16 offsets put the first byte at every alignment a 16-byte load can
  // see; lengths 0..4160 cross the 64-byte fold threshold, many four-lane
  // iterations, and every 0..15-byte tail after the fold. The reference is
  // advanced one byte per length, so the oracle stays linear.
  constexpr std::size_t kMaxLen = 4160;
  const std::vector<char> buf = random_bytes(kMaxLen + 16, 0x5EED);
  for (const CrcPath& path : crc_paths()) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      const char* p = buf.data() + offset;
      std::uint32_t reference = 0xFFFFFFFFu;
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(crc_via(path, p, len), reference ^ 0xFFFFFFFFu)
            << path.name << " offset " << offset << " length " << len;
        if (len < kMaxLen) reference = reference_crc32_step(reference, p[len]);
      }
    }
  }
  // The public entry point agrees with the oracle too, whichever path it
  // picked on this CPU.
  for (std::size_t len = 0; len <= kMaxLen; len += 7) {
    ASSERT_EQ(common::crc32(buf.data() + 3, len),
              reference_crc32(buf.data() + 3, len))
        << "length " << len;
  }
}

TEST(Crc32, LargeBuffersMatchBitwiseReference) {
  // 1 MiB, and 17 MB (a PLTB-sized column set) at an odd length and offset.
  const std::vector<char> buf = random_bytes(17'000'003 + 5, 0xB16);
  for (const std::size_t len : {std::size_t{1} << 20, std::size_t{17'000'003}}) {
    const char* p = buf.data() + 5;
    const std::uint32_t reference = reference_crc32(p, len);
    for (const CrcPath& path : crc_paths()) {
      EXPECT_EQ(crc_via(path, p, len), reference)
          << path.name << " length " << len;
    }
    EXPECT_EQ(common::crc32(p, len), reference) << "length " << len;
  }
}

TEST(Crc32, IncrementalUpdateAtEverySplitEqualsOneShot) {
  // Every two-piece split of 300 bytes, through the public entry point and
  // through each path directly: pieces on either side of 64 bytes, so one
  // piece folds while the next falls back to slice-by-8, and the register
  // must carry across the boundary exactly.
  const std::vector<char> buf = random_bytes(300, 0xC3C3);
  const std::uint32_t whole = reference_crc32(buf.data(), buf.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(buf.data());
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const std::uint32_t split = common::Crc32()
                                    .update(buf.data(), cut)
                                    .update(buf.data() + cut, buf.size() - cut)
                                    .value();
    EXPECT_EQ(split, whole) << "split at " << cut;
    for (const CrcPath& path : crc_paths()) {
      const std::uint32_t reg = path.run(
          path.run(0xFFFFFFFFu, p, cut), p + cut, buf.size() - cut);
      EXPECT_EQ(reg ^ 0xFFFFFFFFu, whole) << path.name << " split at " << cut;
    }
  }
}

// ------------------------------------------------------------ huge pages

TEST(HugePageAdvice, IsAdviceOnlyAtEverySizeAndAlignment) {
  // Null, empty, under-threshold and unaligned multi-megabyte ranges: the
  // call must neither fault nor change a byte, before or after first write.
  common::advise_huge_pages(nullptr, 0);
  common::advise_huge_pages(nullptr, common::kHugePageAdviceMinBytes);
  for (const std::size_t bytes :
       {std::size_t{4096}, common::kHugePageAdviceMinBytes - 1,
        common::kHugePageAdviceMinBytes, (std::size_t{9} << 20) + 123}) {
    std::vector<std::uint8_t> buf;
    buf.reserve(bytes + 7);
    common::advise_huge_pages(buf.data() + 7, bytes);  // before first write
    buf.resize(bytes + 7);
    for (std::size_t i = 0; i < buf.size(); i += 4093) {
      buf[i] = static_cast<std::uint8_t>(i);
    }
    common::advise_huge_pages(buf.data(), buf.size());  // after: still advice
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const auto want = i % 4093 == 0 ? static_cast<std::uint8_t>(i) : 0;
      ASSERT_EQ(buf[i], want) << "size " << bytes << " byte " << i;
    }
  }
}

}  // namespace
}  // namespace planaria
