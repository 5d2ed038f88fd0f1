// Tests for the Fig. 2/4/5 analysis tools.
#include <gtest/gtest.h>

#include "analysis/analysis.hpp"
#include "batch_of.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace planaria::analysis {
namespace {

using test_util::batch_of;
using trace::TraceRecord;

TraceRecord at(PageNumber page, int block, Cycle t) {
  return TraceRecord{addr::compose(page, block), t, AccessType::kRead,
                     DeviceId::kCpuBig};
}

// ---------------------------------------------------------------- footprint

TEST(Footprint, ExtractsOnlyRequestedPage) {
  const trace::TraceBatch records =
      batch_of({at(1, 0, 10), at(2, 5, 20), at(1, 7, 30)});
  const auto samples = footprint_snapshot(records, 1);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].block, 0);
  EXPECT_EQ(samples[0].arrival, 10u);
  EXPECT_EQ(samples[1].block, 7);
}

TEST(Footprint, MissingPageGivesEmpty) {
  const trace::TraceBatch records = batch_of({at(1, 0, 10)});
  EXPECT_TRUE(footprint_snapshot(records, 99).empty());
}

TEST(Footprint, HottestPageByAccessCount) {
  const trace::TraceBatch records = batch_of(
      {at(1, 0, 1), at(2, 0, 2), at(2, 1, 3), at(2, 2, 4), at(3, 0, 5)});
  PageNumber page = 0;
  ASSERT_TRUE(hottest_page(records, page));
  EXPECT_EQ(page, 2u);
}

TEST(Footprint, HottestPageEmptyTrace) {
  PageNumber page = 0;
  EXPECT_FALSE(hottest_page({}, page));
}

// ------------------------------------------------------------- overlap rate

TEST(Overlap, IdenticalWindowsGiveFullOverlap) {
  // Page with blocks {0,1,2} accessed twice in the same pattern.
  trace::TraceBatch records;
  Cycle t = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (int b : {0, 1, 2}) records.push_back(at(5, b, ++t));
  }
  const auto result = overlap_rate(records);
  EXPECT_EQ(result.pages_analyzed, 1u);
  EXPECT_EQ(result.windows_compared, 1u);
  EXPECT_DOUBLE_EQ(result.average_overlap, 1.0);
}

TEST(Overlap, DisjointWindowsGiveZeroOverlap) {
  trace::TraceBatch records;
  Cycle t = 0;
  // Window size = distinct blocks = 6; first 6 accesses {0..5}, next six
  // {6..11}: wait — distinct count includes all 12. Use explicit window.
  for (int b : {0, 1, 2}) records.push_back(at(5, b, ++t));
  for (int b : {10, 11, 12}) records.push_back(at(5, b, ++t));
  const auto result = overlap_rate(records, /*window=*/3);
  EXPECT_EQ(result.windows_compared, 1u);
  EXPECT_DOUBLE_EQ(result.average_overlap, 0.0);
}

TEST(Overlap, PartialOverlapComputed) {
  trace::TraceBatch records;
  Cycle t = 0;
  for (int b : {0, 1, 2, 3}) records.push_back(at(5, b, ++t));
  for (int b : {2, 3, 4, 5}) records.push_back(at(5, b, ++t));
  const auto result = overlap_rate(records, /*window=*/4);
  EXPECT_DOUBLE_EQ(result.average_overlap, 0.5);
}

TEST(Overlap, PagesWithOneWindowAreSkipped) {
  const trace::TraceBatch records = batch_of({at(5, 0, 1), at(5, 1, 2)});
  const auto result = overlap_rate(records);
  EXPECT_EQ(result.pages_analyzed, 0u);
  EXPECT_EQ(result.windows_compared, 0u);
}

TEST(Overlap, SyntheticAppsExceedPaperFloor) {
  // The paper's claim: average overlap rate > 80% on every app. Check two.
  for (const char* name : {"HoK", "Fort"}) {
    const auto trace =
        trace::generate_app_trace(trace::app_by_name(name), 60000);
    const auto result = overlap_rate(trace);
    EXPECT_GT(result.average_overlap, 0.8) << name;
  }
}

// -------------------------------------------------------------- page bitmaps

TEST(PageBitmaps, AccumulateAcrossTrace) {
  const trace::TraceBatch records =
      batch_of({at(1, 0, 1), at(1, 5, 2), at(2, 63, 3)});
  const auto bitmaps = page_bitmaps(records);
  ASSERT_EQ(bitmaps.size(), 2u);
  EXPECT_EQ(bitmaps.at(1).popcount(), 2);
  EXPECT_TRUE(bitmaps.at(2).test(63));
}

// --------------------------------------------------------- neighbor fraction

TEST(Neighbors, IdenticalAdjacentPagesAreLearnable) {
  trace::TraceBatch records;
  Cycle t = 0;
  for (PageNumber p : {100ull, 101ull}) {
    for (int b : {0, 1, 2, 3, 4}) records.push_back(at(p, b, ++t));
  }
  const auto fractions = learnable_neighbor_fraction(records, {1, 4});
  EXPECT_DOUBLE_EQ(fractions[0], 1.0);
  EXPECT_DOUBLE_EQ(fractions[1], 1.0);
}

TEST(Neighbors, DistantPagesAreNot) {
  trace::TraceBatch records;
  Cycle t = 0;
  for (PageNumber p : {100ull, 500ull}) {
    for (int b : {0, 1, 2, 3, 4}) records.push_back(at(p, b, ++t));
  }
  const auto fractions = learnable_neighbor_fraction(records, {4, 64});
  EXPECT_DOUBLE_EQ(fractions[0], 0.0);
  EXPECT_DOUBLE_EQ(fractions[1], 0.0);
}

TEST(Neighbors, DissimilarBitmapsAreNot) {
  trace::TraceBatch records;
  Cycle t = 0;
  for (int b : {0, 1, 2, 3, 4}) records.push_back(at(100, b, ++t));
  for (int b : {20, 21, 22, 23, 24}) records.push_back(at(101, b, ++t));
  const auto fractions =
      learnable_neighbor_fraction(records, {4}, /*max_bit_diff=*/4);
  EXPECT_DOUBLE_EQ(fractions[0], 0.0);
}

TEST(Neighbors, BitDiffThresholdIsInclusive) {
  trace::TraceBatch records;
  Cycle t = 0;
  // Pages share {0..3}; each has two private blocks => Hamming distance 4.
  for (int b : {0, 1, 2, 3, 8, 9}) records.push_back(at(100, b, ++t));
  for (int b : {0, 1, 2, 3, 12, 13}) records.push_back(at(101, b, ++t));
  EXPECT_DOUBLE_EQ(learnable_neighbor_fraction(records, {4}, 4)[0], 1.0);
  EXPECT_DOUBLE_EQ(learnable_neighbor_fraction(records, {4}, 3)[0], 0.0);
}

TEST(Neighbors, FractionIsMonotoneInDistance) {
  const auto trace = trace::generate_app_trace(trace::app_by_name("HoK"), 60000);
  const auto fractions = learnable_neighbor_fraction(trace, {4, 16, 64});
  EXPECT_LE(fractions[0], fractions[1]);
  EXPECT_LE(fractions[1], fractions[2]);
  EXPECT_GT(fractions[0], 0.0);
}

TEST(Neighbors, EmptyTraceGivesZeros) {
  const auto fractions = learnable_neighbor_fraction({}, {4, 64});
  EXPECT_EQ(fractions.size(), 2u);
  EXPECT_EQ(fractions[0], 0.0);
}

// ---------------------------------------------------------------------------
// Rolling summaries (the serve layer's fleet aggregation)
// ---------------------------------------------------------------------------

TEST(StreamSummary, NearestRankQuantilesAndExtremes) {
  StreamSummary s;
  for (double v : {5.0, 1.0, 4.0, 2.0, 3.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  // Nearest-rank: rank = ceil(q * n), 1-based.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  // q = 0.2 -> rank 1, q = 0.21 -> rank 2: the estimator is a step function.
  EXPECT_DOUBLE_EQ(s.quantile(0.2), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.21), 2.0);
}

TEST(StreamSummary, InsertionOrderIsInvisible) {
  // The serve loop folds results in completion order live, but in id order
  // after a resume; the two summaries must compare equal bit-for-bit. The
  // summary therefore sorts its values and sums the mean ascending — any
  // order-dependent accumulation would break this with FP non-associativity.
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(1.0 / 3.0 + i * 0.1 + (i % 7) * 1e-13);
  }
  StreamSummary forward;
  for (double v : values) forward.add(v);
  StreamSummary backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it) backward.add(*it);
  StreamSummary shuffled;  // deterministic interleave, no RNG needed
  for (std::size_t i = 0; i < values.size(); i += 2) shuffled.add(values[i]);
  for (std::size_t i = 1; i < values.size(); i += 2) shuffled.add(values[i]);
  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(forward == shuffled);
  EXPECT_EQ(forward.mean(), backward.mean());  // exact, not approximate
}

TEST(StreamSummary, EmptySummaryIsInert) {
  const StreamSummary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(s == StreamSummary{});
}

TEST(GroupedSummary, GroupsByKeyAndFindsThem) {
  GroupedSummary g;
  g.add("phone", 10.0);
  g.add("phone", 20.0);
  g.add("tablet", 5.0);
  ASSERT_NE(g.find("phone"), nullptr);
  EXPECT_EQ(g.find("phone")->count(), 2u);
  EXPECT_DOUBLE_EQ(g.find("phone")->mean(), 15.0);
  EXPECT_EQ(g.find("tablet")->count(), 1u);
  EXPECT_EQ(g.find("missing"), nullptr);

  GroupedSummary same;
  same.add("tablet", 5.0);  // different arrival order, same content
  same.add("phone", 20.0);
  same.add("phone", 10.0);
  EXPECT_TRUE(g == same);
}

}  // namespace
}  // namespace planaria::analysis
