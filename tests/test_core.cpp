// Unit tests for the Planaria core: SLP's FT->AT->PT pipeline, TLP's RPT and
// Ref matrix, the coordinator's selection rule, and storage accounting.
#include <gtest/gtest.h>

#include "core/planaria.hpp"
#include "core/slp.hpp"
#include "core/storage.hpp"
#include "core/tlp.hpp"

namespace planaria::core {
namespace {

prefetch::DemandEvent event(PageNumber page, int block, Cycle now,
                            bool sc_hit = false,
                            AccessType type = AccessType::kRead) {
  prefetch::DemandEvent e;
  e.page = page;
  e.block_in_segment = block;
  e.local_block = page * kBlocksPerSegment + static_cast<std::uint64_t>(block);
  e.now = now;
  e.type = type;
  e.sc_hit = sc_hit;
  return e;
}

SlpConfig fast_slp() {
  SlpConfig config;
  config.at_timeout = 100;
  config.sweep_interval = 1;  // sweep every access: deterministic timeouts
  return config;
}

/// Teaches SLP the snapshot {blocks...} for `page`, ending after the timeout
/// so the bitmap lands in the PT.
void teach(Slp& slp, PageNumber page, std::initializer_list<int> blocks,
           Cycle& now) {
  for (int b : blocks) slp.learn(event(page, b, now += 10));
  // Idle long enough for the sweep to see the timeout; the sweep runs on the
  // next (unrelated) access.
  now += 1000;
  slp.learn(event(page + 100000, 0, now));
}

// ---------------------------------------------------------------------- SLP

TEST(Slp, ConfigValidation) {
  SlpConfig config;
  config.promote_threshold = 4;  // FT stores only 3 offsets
  EXPECT_THROW(Slp{config}, std::invalid_argument);
  config = SlpConfig{};
  config.pt_sets = 0;
  EXPECT_THROW(Slp{config}, std::invalid_argument);
}

TEST(Slp, NoPatternBeforeLearning) {
  Slp slp(fast_slp());
  EXPECT_FALSE(slp.has_pattern(5));
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_FALSE(slp.issue(event(5, 0, 1), out));
  EXPECT_TRUE(out.empty());
}

TEST(Slp, FewerThanThreeOffsetsNeverPromotes) {
  Slp slp(fast_slp());
  Cycle now = 0;
  teach(slp, 7, {1, 2}, now);  // only two distinct offsets
  EXPECT_FALSE(slp.has_pattern(7));
  EXPECT_EQ(slp.stats().promotions, 0u);
}

TEST(Slp, RepeatedSameOffsetDoesNotPromote) {
  Slp slp(fast_slp());
  Cycle now = 0;
  for (int i = 0; i < 10; ++i) slp.learn(event(7, 3, now += 10));
  EXPECT_EQ(slp.stats().promotions, 0u);
}

TEST(Slp, ThreeDistinctOffsetsPromoteAndTimeoutLearns) {
  Slp slp(fast_slp());
  Cycle now = 0;
  teach(slp, 7, {1, 5, 9, 12}, now);
  EXPECT_EQ(slp.stats().promotions, 1u);
  EXPECT_GE(slp.stats().timeout_evictions, 1u);
  EXPECT_TRUE(slp.has_pattern(7));
}

TEST(Slp, IssuePrefetchesPatternMinusTrigger) {
  Slp slp(fast_slp());
  Cycle now = 0;
  teach(slp, 7, {1, 5, 9, 12}, now);
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_TRUE(slp.issue(event(7, 5, now += 10), out));
  // Pattern {1,5,9,12} minus trigger 5 = {1,9,12}.
  ASSERT_EQ(out.size(), 3u);
  std::set<std::uint64_t> targets;
  for (const auto& r : out) {
    EXPECT_EQ(r.source, cache::FillSource::kPrefetchSlp);
    targets.insert(r.local_block % kBlocksPerSegment);
  }
  EXPECT_EQ(targets, (std::set<std::uint64_t>{1, 9, 12}));
}

TEST(Slp, IssueExcludesBlocksAlreadyAccessedThisVisit) {
  Slp slp(fast_slp());
  Cycle now = 0;
  teach(slp, 7, {1, 5, 9, 12}, now);
  // Revisit: blocks 1 and 9 already touched (they re-enter FT/AT).
  slp.learn(event(7, 1, now += 10));
  slp.learn(event(7, 9, now += 10));
  slp.learn(event(7, 5, now += 10));  // promotes back into AT
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_TRUE(slp.issue(event(7, 5, now), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].local_block % kBlocksPerSegment, 12u);
}

TEST(Slp, CapacityEvictionAlsoLearns) {
  SlpConfig config = fast_slp();
  config.at_sets = 1;
  config.at_ways = 1;  // one-entry AT: every promotion evicts the previous
  config.at_timeout = 1000000;  // timeouts never fire
  Slp slp(config);
  Cycle now = 0;
  for (int b : {1, 2, 3}) slp.learn(event(10, b, now += 10));
  for (int b : {4, 5, 6}) slp.learn(event(20, b, now += 10));  // evicts page 10
  EXPECT_EQ(slp.stats().capacity_evictions, 1u);
  EXPECT_TRUE(slp.has_pattern(10));
}

TEST(Slp, TinySnapshotsFilteredFromPt) {
  // A capacity-evicted AT entry with fewer than promote_threshold bits must
  // not pollute the PT. Construct via promotion that immediately displaces.
  SlpConfig config = fast_slp();
  config.at_sets = 1;
  config.at_ways = 1;
  config.at_timeout = 1000000;
  Slp slp(config);
  Cycle now = 0;
  for (int b : {1, 2, 3}) slp.learn(event(10, b, now += 10));
  EXPECT_FALSE(slp.has_pattern(10));  // still accumulating, PT empty
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_FALSE(slp.issue(event(10, 1, now), out));
}

TEST(Slp, StorageBitsMatchBreakdownTable) {
  SlpConfig config;
  Slp slp(config);
  PlanariaConfig pc;
  pc.slp = config;
  pc.enable_tlp = false;
  EXPECT_EQ(slp.storage_bits(), planaria_storage(pc).per_channel_bits());
}

// ---------------------------------------------------------------------- TLP

TEST(Tlp, ConfigValidation) {
  TlpConfig config;
  config.rpt_entries = 0;
  EXPECT_THROW(Tlp{config}, std::invalid_argument);
  config = TlpConfig{};
  config.min_common_bits = 17;
  EXPECT_THROW(Tlp{config}, std::invalid_argument);
  // Recency links are 16-bit slot indices with one value reserved as null.
  config = TlpConfig{};
  config.rpt_entries = 65535;
  EXPECT_NO_THROW(config.validate());
  config.rpt_entries = 65536;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Tlp, LearnsBitmaps) {
  Tlp tlp;
  tlp.learn(event(100, 3, 1));
  tlp.learn(event(100, 7, 2));
  const SegmentBitmap* bm = tlp.bitmap_of(100);
  ASSERT_NE(bm, nullptr);
  EXPECT_TRUE(bm->test(3));
  EXPECT_TRUE(bm->test(7));
  EXPECT_EQ(bm->popcount(), 2);
}

TEST(Tlp, TransfersFromSimilarNeighbor) {
  Tlp tlp;  // distance 64, min common 4
  Cycle now = 0;
  // Page 0x100: blocks {1,2,3,4,8,9}.
  for (int b : {1, 2, 3, 4, 8, 9}) tlp.learn(event(0x100, b, ++now));
  // Page 0x110 (distance 16): shares {1,2,3,4}.
  for (int b : {1, 2, 3, 4}) tlp.learn(event(0x110, b, ++now));
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_TRUE(tlp.issue(event(0x110, 4, ++now), out));
  // Blocks set on 0x100 but not on 0x110: {8, 9}.
  ASSERT_EQ(out.size(), 2u);
  std::set<std::uint64_t> targets;
  for (const auto& r : out) {
    EXPECT_EQ(r.source, cache::FillSource::kPrefetchTlp);
    EXPECT_EQ(r.local_block / kBlocksPerSegment, 0x110u);
    targets.insert(r.local_block % kBlocksPerSegment);
  }
  EXPECT_EQ(targets, (std::set<std::uint64_t>{8, 9}));
}

TEST(Tlp, NoTransferBelowSimilarityFloor) {
  Tlp tlp;
  Cycle now = 0;
  for (int b : {1, 2, 3, 8, 9}) tlp.learn(event(0x100, b, ++now));
  for (int b : {1, 2, 3}) tlp.learn(event(0x110, b, ++now));  // only 3 common
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_FALSE(tlp.issue(event(0x110, 3, ++now), out));
  EXPECT_TRUE(out.empty());
}

TEST(Tlp, NoTransferBeyondDistanceThreshold) {
  Tlp tlp;  // distance threshold 64
  Cycle now = 0;
  for (int b : {1, 2, 3, 4, 8}) tlp.learn(event(0x100, b, ++now));
  for (int b : {1, 2, 3, 4}) tlp.learn(event(0x100 + 65, b, ++now));
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_FALSE(tlp.issue(event(0x100 + 65, 4, ++now), out));
}

TEST(Tlp, MostSimilarNeighborWins) {
  // Figure 6: page B (6 common blocks) beats page C (3 common blocks).
  Tlp tlp;
  Cycle now = 0;
  // Page C at 0x90: blocks {1,2,3,15} -> 3 common with A, one extra (15).
  for (int b : {1, 2, 3, 15}) tlp.learn(event(0x90, b, ++now));
  // Page B at 0xB0: blocks {1,2,3,4,5,6,10} -> 6 common, extra {10}.
  for (int b : {1, 2, 3, 4, 5, 6, 10}) tlp.learn(event(0xB0, b, ++now));
  // Page A at 0xA0 accesses {1,2,3,4,5,6}.
  for (int b : {1, 2, 3, 4, 5, 6}) tlp.learn(event(0xA0, b, ++now));
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_TRUE(tlp.issue(event(0xA0, 6, ++now), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].local_block % kBlocksPerSegment, 10u)
      << "should borrow from B, not C";
}

TEST(Tlp, EvictionClearsRefBits) {
  TlpConfig config;
  config.rpt_entries = 2;
  Tlp tlp(config);
  Cycle now = 0;
  for (int b : {1, 2, 3, 4}) tlp.learn(event(0x10, b, ++now));
  for (int b : {1, 2, 3, 4}) tlp.learn(event(0x12, b, ++now));
  // Evict page 0x10 by allocating a third page far away.
  for (int b : {5, 6}) tlp.learn(event(0x9000, b, ++now));
  EXPECT_EQ(tlp.bitmap_of(0x10), nullptr);
  // 0x12 must no longer transfer from the evicted slot's stale data.
  std::vector<prefetch::PrefetchRequest> out;
  EXPECT_FALSE(tlp.issue(event(0x12, 4, ++now), out));
}

TEST(Tlp, StorageGrowsQuadraticallyWithEntries) {
  TlpConfig small;
  small.rpt_entries = 64;
  TlpConfig big;
  big.rpt_entries = 128;
  // Ref matrix is N*(N-1) bits total, so doubling N more than doubles bits.
  EXPECT_GT(Tlp(big).storage_bits(), 2 * Tlp(small).storage_bits());
}

// -------------------------------------------------------------- coordinator

TEST(Planaria, ConfigRequiresOneSubPrefetcher) {
  PlanariaConfig config;
  config.enable_slp = false;
  config.enable_tlp = false;
  EXPECT_THROW(PlanariaPrefetcher{config}, std::invalid_argument);
}

TEST(Planaria, NameReflectsAblation) {
  PlanariaConfig config;
  EXPECT_STREQ(PlanariaPrefetcher(config).name(), "planaria");
  config.enable_tlp = false;
  EXPECT_STREQ(PlanariaPrefetcher(config).name(), "planaria-slp-only");
  config.enable_tlp = true;
  config.enable_slp = false;
  EXPECT_STREQ(PlanariaPrefetcher(config).name(), "planaria-tlp-only");
}

PlanariaConfig fast_planaria() {
  PlanariaConfig config;
  config.slp = SlpConfig{};
  config.slp.at_timeout = 100;
  config.slp.sweep_interval = 1;
  return config;
}

TEST(Planaria, NoIssueOnHits) {
  PlanariaPrefetcher pf(fast_planaria());
  std::vector<prefetch::PrefetchRequest> out;
  pf.on_demand(event(5, 1, 1, /*sc_hit=*/true), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(pf.stats().triggers, 0u);
}

TEST(Planaria, SlpHasIssuePriority) {
  PlanariaPrefetcher pf(fast_planaria());
  Cycle now = 0;
  std::vector<prefetch::PrefetchRequest> scratch;
  // Teach SLP page 7's snapshot across one full visit.
  for (int b : {1, 5, 9}) pf.on_demand(event(7, b, now += 10), scratch);
  for (int b : {1, 5, 9}) pf.on_demand(event(7, b, now += 10), scratch);
  now += 1000;
  pf.on_demand(event(999999, 0, now), scratch);  // trigger timeout sweep
  scratch.clear();
  pf.on_demand(event(7, 1, now += 10), scratch);
  ASSERT_FALSE(scratch.empty());
  for (const auto& r : scratch) {
    EXPECT_EQ(r.source, cache::FillSource::kPrefetchSlp);
  }
  EXPECT_GE(pf.stats().slp_issues, 1u);
}

TEST(Planaria, TlpFiresOnlyWhenSlpHasNoHistory) {
  PlanariaPrefetcher pf(fast_planaria());
  Cycle now = 0;
  std::vector<prefetch::PrefetchRequest> scratch;
  // Build TLP neighbor state without completing any SLP snapshot: pages 0x100
  // and 0x104, but each visit stays under the promote threshold... instead,
  // simply use a page with no PT entry (first visit) — SLP has no history.
  for (int b : {1, 2, 3, 4, 8, 9}) pf.on_demand(event(0x100, b, now += 10), scratch);
  scratch.clear();
  for (int b : {1, 2, 3, 4}) pf.on_demand(event(0x104, b, now += 10), scratch);
  // The last miss of 0x104 should have been handled by TLP (SLP's PT cannot
  // contain 0x104 yet).
  bool any_tlp = false;
  for (const auto& r : scratch) {
    any_tlp |= r.source == cache::FillSource::kPrefetchTlp;
  }
  EXPECT_TRUE(any_tlp);
  EXPECT_GE(pf.stats().tlp_issues, 1u);
  EXPECT_EQ(pf.stats().slp_issues, 0u);
}

TEST(Planaria, DisabledSubPrefetcherNeverIssues) {
  PlanariaConfig config = fast_planaria();
  config.enable_tlp = false;
  PlanariaPrefetcher pf(config);
  Cycle now = 0;
  std::vector<prefetch::PrefetchRequest> scratch;
  for (int b : {1, 2, 3, 4, 8, 9}) pf.on_demand(event(0x100, b, now += 10), scratch);
  for (int b : {1, 2, 3, 4}) pf.on_demand(event(0x104, b, now += 10), scratch);
  for (const auto& r : scratch) {
    EXPECT_NE(r.source, cache::FillSource::kPrefetchTlp);
  }
  EXPECT_EQ(pf.stats().tlp_issues, 0u);
}

TEST(Planaria, StorageSumsEnabledParts) {
  PlanariaConfig config;
  const auto full = PlanariaPrefetcher(config).storage_bits();
  config.enable_tlp = false;
  const auto slp_only = PlanariaPrefetcher(config).storage_bits();
  config.enable_tlp = true;
  config.enable_slp = false;
  const auto tlp_only = PlanariaPrefetcher(config).storage_bits();
  EXPECT_EQ(full, slp_only + tlp_only);
}

// ------------------------------------------------------------------ storage

TEST(Storage, DefaultConfigIsInPaperRegime) {
  const auto breakdown = planaria_storage();
  const double kb = breakdown.total_kb();
  // Paper: 345.2KB. Our field-exact accounting lands within 10%.
  EXPECT_GT(kb, 300.0);
  EXPECT_LT(kb, 380.0);
  const double frac = breakdown.fraction_of_sc(4ull << 20);
  EXPECT_GT(frac, 0.07);
  EXPECT_LT(frac, 0.095);
}

TEST(Storage, PtDominates) {
  const auto breakdown = planaria_storage();
  std::uint64_t pt_bits = 0;
  for (const auto& item : breakdown.items) {
    if (item.name.find("PT (pattern") != std::string::npos) pt_bits = item.bits();
  }
  EXPECT_GT(pt_bits, breakdown.per_channel_bits() / 2);
}

TEST(Storage, AblationConfigsShrink) {
  PlanariaConfig config;
  config.enable_tlp = false;
  EXPECT_LT(planaria_storage(config).per_channel_bits(),
            planaria_storage().per_channel_bits());
}

}  // namespace
}  // namespace planaria::core
