// Unit tests for the baseline prefetchers: BOP, SPP, next-line, stride, null.
#include <gtest/gtest.h>

#include "prefetch/bop.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/simple.hpp"
#include "prefetch/spp.hpp"

namespace planaria::prefetch {
namespace {

DemandEvent miss_at(std::uint64_t block, Cycle now = 0,
                    AccessType type = AccessType::kRead) {
  DemandEvent e;
  e.local_block = block;
  e.page = block / kBlocksPerSegment;
  e.block_in_segment = static_cast<int>(block % kBlocksPerSegment);
  e.now = now;
  e.type = type;
  e.sc_hit = false;
  return e;
}

// --------------------------------------------------------------------- null

TEST(NullPrefetcher, NeverIssues) {
  NullPrefetcher pf;
  std::vector<PrefetchRequest> out;
  for (std::uint64_t b = 0; b < 100; ++b) pf.on_demand(miss_at(b), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(pf.storage_bits(), 0u);
}

// ---------------------------------------------------------------- next-line

TEST(NextLine, PrefetchesSequentialSuccessors) {
  NextLinePrefetcher pf(2);
  std::vector<PrefetchRequest> out;
  pf.on_demand(miss_at(100), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].local_block, 101u);
  EXPECT_EQ(out[1].local_block, 102u);
}

TEST(NextLine, SilentOnHits) {
  NextLinePrefetcher pf;
  std::vector<PrefetchRequest> out;
  auto e = miss_at(100);
  e.sc_hit = true;
  pf.on_demand(e, out);
  EXPECT_TRUE(out.empty());
}

TEST(NextLine, RejectsBadDegree) {
  EXPECT_THROW(NextLinePrefetcher(0), std::invalid_argument);
}

// ------------------------------------------------------------------- stride

TEST(Stride, DetectsConstantStride) {
  StridePrefetcher pf(1);
  std::vector<PrefetchRequest> out;
  // Three accesses with stride 4 build confidence; the next should prefetch.
  for (std::uint64_t b : {100ull, 104ull, 108ull, 112ull}) {
    out.clear();
    pf.on_demand(miss_at(b), out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].local_block, 116u);
}

TEST(Stride, SeparateStreamsPerDevice) {
  StridePrefetcher pf(1);
  std::vector<PrefetchRequest> out;
  for (int i = 0; i < 4; ++i) {
    auto cpu = miss_at(100 + static_cast<std::uint64_t>(i) * 2);
    cpu.device = DeviceId::kCpuBig;
    auto gpu = miss_at(5000 + static_cast<std::uint64_t>(i) * 3);
    gpu.device = DeviceId::kGpu;
    out.clear();
    pf.on_demand(cpu, out);
    if (i == 3) {
      ASSERT_FALSE(out.empty());
      EXPECT_EQ(out[0].local_block, 108u);  // interleaving did not break it
    }
    out.clear();
    pf.on_demand(gpu, out);
  }
}

TEST(Stride, NoIssueWithoutConfidence) {
  StridePrefetcher pf(1);
  std::vector<PrefetchRequest> out;
  pf.on_demand(miss_at(10), out);
  pf.on_demand(miss_at(17), out);  // first delta: confidence 1 only
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------- bop

TEST(Bop, ConfigValidation) {
  BopConfig config;
  config.rr_entries = 100;  // not a power of two
  EXPECT_THROW(BestOffsetPrefetcher{config}, std::invalid_argument);
  config = BopConfig{};
  config.degree = 0;
  EXPECT_THROW(BestOffsetPrefetcher{config}, std::invalid_argument);
}

TEST(Bop, StartsDisabled) {
  BestOffsetPrefetcher pf;
  EXPECT_FALSE(pf.prefetch_enabled());
  std::vector<PrefetchRequest> out;
  pf.on_demand(miss_at(100), out);
  EXPECT_TRUE(out.empty());
}

TEST(Bop, LearnsSequentialOffsetAndIssues) {
  BopConfig config;
  config.score_max = 20;  // fast rounds for the test (> bad_score)
  BestOffsetPrefetcher pf(config);
  std::vector<PrefetchRequest> out;
  // Pure sequential stream with fills completing before the next trigger.
  for (std::uint64_t b = 0; b < 4000; ++b) {
    pf.on_fill(b, false, b * 10);
    out.clear();
    pf.on_demand(miss_at(b + 1, b * 10 + 5), out);
  }
  EXPECT_TRUE(pf.prefetch_enabled());
  EXPECT_EQ(pf.best_offset(), 1);
  ASSERT_FALSE(out.empty());
}

TEST(Bop, DisablesOnRandomTraffic) {
  BopConfig config;
  config.round_max = 5;  // converge quickly
  BestOffsetPrefetcher pf(config);
  std::vector<PrefetchRequest> out;
  std::uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t block = (x >> 33) % (1 << 30);
    pf.on_fill(block, false, 0);
    out.clear();
    pf.on_demand(miss_at(block ^ 0x5555), out);
  }
  EXPECT_FALSE(pf.prefetch_enabled());
}

TEST(Bop, IgnoresWritesAndPlainHits) {
  BestOffsetPrefetcher pf;
  std::vector<PrefetchRequest> out;
  auto w = miss_at(100);
  w.type = AccessType::kWrite;
  pf.on_demand(w, out);
  auto h = miss_at(101);
  h.sc_hit = true;
  pf.on_demand(h, out);
  EXPECT_TRUE(out.empty());
}

TEST(Bop, StorageIsSmall) {
  BestOffsetPrefetcher pf;
  EXPECT_LT(pf.storage_bits(), 8192u * 8);  // well under 8KB
  EXPECT_GT(pf.storage_bits(), 0u);
}

// ---------------------------------------------------------------------- spp

TEST(Spp, ConfigValidation) {
  SppConfig config;
  config.fill_threshold = 0.0;
  EXPECT_THROW(SignaturePathPrefetcher{config}, std::invalid_argument);
  config = SppConfig{};
  config.pt_entries = 0;
  EXPECT_THROW(SignaturePathPrefetcher{config}, std::invalid_argument);
}

TEST(Spp, LearnsSequentialDeltaChain) {
  SignaturePathPrefetcher pf;
  std::vector<PrefetchRequest> out;
  // Train: many pages with a +1 delta pattern.
  for (std::uint64_t page = 0; page < 200; ++page) {
    for (int b = 0; b < kBlocksPerSegment; ++b) {
      out.clear();
      pf.on_demand(miss_at(page * kBlocksPerSegment +
                           static_cast<std::uint64_t>(b)), out);
    }
  }
  // A fresh page walking +1 should trigger lookahead prefetches.
  out.clear();
  pf.on_demand(miss_at(1000 * kBlocksPerSegment), out);
  out.clear();
  pf.on_demand(miss_at(1000 * kBlocksPerSegment + 1), out);
  ASSERT_FALSE(out.empty());
  // All targets ahead of the current block.
  for (const auto& r : out) {
    EXPECT_GT(r.local_block, 1000u * kBlocksPerSegment + 1);
  }
}

TEST(Spp, NoPrefetchWithoutTraining) {
  SignaturePathPrefetcher pf;
  std::vector<PrefetchRequest> out;
  pf.on_demand(miss_at(42), out);
  EXPECT_TRUE(out.empty());
}

TEST(Spp, SameBlockRetouchIsIgnored) {
  SignaturePathPrefetcher pf;
  std::vector<PrefetchRequest> out;
  pf.on_demand(miss_at(100), out);
  pf.on_demand(miss_at(100), out);  // delta 0
  EXPECT_TRUE(out.empty());
}

TEST(Spp, StorageMatchesConfigScaling) {
  SppConfig small;
  small.pt_entries = 256;
  SppConfig big;
  big.pt_entries = 2048;
  EXPECT_LT(SignaturePathPrefetcher(small).storage_bits(),
            SignaturePathPrefetcher(big).storage_bits());
}

TEST(Spp, ConfidenceDecaysOnNoisyPatterns) {
  // Shuffled deltas must produce far fewer prefetches than sequential ones.
  SignaturePathPrefetcher seq_pf;
  SignaturePathPrefetcher noise_pf;
  std::vector<PrefetchRequest> seq_out, noise_out;
  std::uint64_t x = 99;
  for (std::uint64_t page = 0; page < 300; ++page) {
    for (int i = 0; i < kBlocksPerSegment; ++i) {
      seq_pf.on_demand(miss_at(page * kBlocksPerSegment +
                               static_cast<std::uint64_t>(i)), seq_out);
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      noise_pf.on_demand(
          miss_at(page * kBlocksPerSegment + ((x >> 40) % kBlocksPerSegment)),
          noise_out);
    }
  }
  EXPECT_GT(seq_out.size(), 2 * noise_out.size());
}

// ---------------------------------------------------------- signature table

SignatureTable::Entry st(std::uint16_t signature, int last_offset = 0) {
  return SignatureTable::Entry{signature, last_offset};
}

TEST(SignatureTable, FindMissOnEmpty) {
  SignatureTable t(4);
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(SignatureTable, InsertThenFind) {
  SignatureTable t(4);
  EXPECT_FALSE(t.insert(1, st(100, 3)).has_value());
  ASSERT_NE(t.find(1), nullptr);
  EXPECT_EQ(t.find(1)->signature, 100);
  EXPECT_EQ(t.find(1)->last_offset, 3);
}

TEST(SignatureTable, InsertOverwritesExistingKey) {
  SignatureTable t(4);
  t.insert(1, st(100));
  EXPECT_FALSE(t.insert(1, st(200)).has_value());
  EXPECT_EQ(t.find(1)->signature, 200);
  EXPECT_EQ(t.size(), 1u);
}

TEST(SignatureTable, EvictsLeastRecentlyUsed) {
  SignatureTable t(2);
  t.insert(1, st(10));
  t.insert(2, st(20));
  t.find(1);  // refresh 1; victim should be 2
  const auto evicted = t.insert(3, st(30));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 2u);
  EXPECT_NE(t.find(1), nullptr);
  EXPECT_EQ(t.find(2), nullptr);
}

TEST(SignatureTable, PeekDoesNotRefreshLru) {
  SignatureTable t(2);
  t.insert(1, st(10));
  t.insert(2, st(20));
  t.peek(1);  // does NOT refresh: 1 stays LRU
  const auto evicted = t.insert(3, st(30));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1u);
}

TEST(SignatureTable, SingleSlotTableAlwaysEvictsItsOnlyEntry) {
  SignatureTable t(1);
  EXPECT_FALSE(t.insert(1, st(10)).has_value());
  EXPECT_NE(t.find(1), nullptr);
  EXPECT_EQ(t.insert(2, st(20)), std::optional<PageNumber>{1});
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.find(2)->signature, 20);
  EXPECT_EQ(t.size(), 1u);
}

}  // namespace
}  // namespace planaria::prefetch
