// Tests for the simulation layer: config plumbing, request flow, MSHR
// merging, AMAT/IPC/power accounting, and the experiment runner.
#include <gtest/gtest.h>

#include "batch_of.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace planaria::sim {
namespace {

trace::TraceRecord rec(Address a, Cycle t,
                       AccessType type = AccessType::kRead) {
  return trace::TraceRecord{addr::block_align(a), t, type, DeviceId::kCpuBig};
}

SimConfig small_config() {
  SimConfig config;
  config.cache.size_bytes = 1 << 16;  // 64KB slices keep tests fast
  return config;
}

PrefetcherFactory null_factory() {
  return make_prefetcher_factory(PrefetcherKind::kNone);
}

// ------------------------------------------------------------------- basics

TEST(Simulator, EmptyTraceProducesZeroResult) {
  const auto r = Simulator::run(small_config(), null_factory(), "none",
                                trace::TraceBatch{});
  EXPECT_EQ(r.demand_reads, 0u);
  EXPECT_EQ(r.amat_cycles, 0.0);
  EXPECT_EQ(r.sc_hit_rate, 0.0);
}

TEST(Simulator, SingleReadCostsScPlusDram) {
  const auto config = small_config();
  const auto r = Simulator::run(config, null_factory(), "none",
                                test_util::batch_of({rec(0x10000, 100)}));
  EXPECT_EQ(r.demand_reads, 1u);
  EXPECT_EQ(r.sc_hit_rate, 0.0);
  // Cold miss: SC latency + ACT + CAS + burst.
  const auto& t = config.dram.timing;
  EXPECT_NEAR(r.amat_cycles,
              static_cast<double>(config.sc_hit_latency + t.tRCD + t.tCL +
                                  t.burst_cycles()),
              2.0);
}

TEST(Simulator, RepeatAccessHitsAfterFill) {
  const auto config = small_config();
  const auto r = Simulator::run(
      config, null_factory(), "none",
      test_util::batch_of({rec(0x10000, 100), rec(0x10000, 5000)}));
  EXPECT_EQ(r.demand_reads, 2u);
  EXPECT_NEAR(r.sc_hit_rate, 0.5, 1e-9);
}

TEST(Simulator, MergedDemandsShareOneFill) {
  // Two reads of the same block, the second arriving while the first is in
  // flight: one DRAM read, two resolved demands.
  const auto r = Simulator::run(
      small_config(), null_factory(), "none",
      test_util::batch_of({rec(0x10000, 100), rec(0x10000, 110)}));
  EXPECT_EQ(r.demand_reads, 2u);
  EXPECT_EQ(r.dram_reads, 1u);
}

TEST(Simulator, WritesGoToDramOnMiss) {
  const auto r = Simulator::run(
      small_config(), null_factory(), "none",
      test_util::batch_of({rec(0x10000, 100, AccessType::kWrite)}));
  EXPECT_EQ(r.demand_writes, 1u);
  EXPECT_EQ(r.dram_writes, 1u);
  EXPECT_EQ(r.dram_reads, 0u);
}

TEST(Simulator, ChannelsAreIndependent) {
  // Blocks in different segments of one page go to different channels.
  std::vector<trace::TraceRecord> records;
  for (int ch = 0; ch < kChannels; ++ch) {
    records.push_back(rec(addr::compose_segment(42, ch, 0), 100 + ch));
  }
  Simulator sim(small_config(), null_factory(), "none");
  for (const auto& r : records) sim.step(r);
  const auto result = sim.finish();
  EXPECT_EQ(result.demand_reads, 4u);
  EXPECT_EQ(result.dram_reads, 4u);
}

TEST(Simulator, OutOfOrderTraceAsserts) {
  Simulator sim(small_config(), null_factory(), "none");
  sim.step(rec(0x10000, 100));
  EXPECT_DEATH(sim.step(rec(0x20000, 50)), "time-ordered");
}

TEST(Simulator, RejectsNullFactory) {
  EXPECT_THROW(Simulator(small_config(), nullptr, "x"), std::invalid_argument);
}

TEST(Simulator, RejectsInvalidConfig) {
  SimConfig config = small_config();
  config.sc_hit_latency = 0;
  EXPECT_THROW(Simulator(config, null_factory(), "x"), std::invalid_argument);
}

// ------------------------------------------------------------ prefetch path

TEST(Simulator, NextLinePrefetchProducesPrefetchHits) {
  // Sequential stream: next-line prefetch should convert later misses into
  // prefetch hits.
  trace::TraceBatch records;
  Cycle t = 100;
  for (int i = 0; i < 64; ++i) {
    records.push_back(rec(addr::compose_segment(7, 0, 0) +
                              static_cast<Address>(i) * kBlockBytes,
                          t += 200));
  }
  const auto none = Simulator::run(small_config(), null_factory(), "none",
                                   records);
  const auto nl = Simulator::run(
      small_config(), make_prefetcher_factory(PrefetcherKind::kNextLine),
      "next-line", records);
  EXPECT_GT(nl.sc_hit_rate, none.sc_hit_rate);
  EXPECT_GT(nl.prefetch_issued, 0u);
  EXPECT_GT(nl.prefetch_accuracy, 0.5);
  EXPECT_LT(nl.amat_cycles, none.amat_cycles);
}

TEST(Simulator, PrefetchTrafficCountsInDram) {
  trace::TraceBatch records;
  Cycle t = 100;
  for (int i = 0; i < 32; ++i) {
    records.push_back(rec(addr::compose_segment(7, 0, 0) +
                              static_cast<Address>(2 * i) * kBlockBytes,
                          t += 300));
  }
  // Next-line on a stride-2 stream: all prefetches useless, pure traffic.
  const auto none = Simulator::run(small_config(), null_factory(), "none",
                                   records);
  const auto nl = Simulator::run(
      small_config(), make_prefetcher_factory(PrefetcherKind::kNextLine),
      "next-line", records);
  EXPECT_GT(nl.dram_reads, none.dram_reads);
  EXPECT_EQ(nl.prefetch_accuracy, 0.0);
  EXPECT_GT(nl.traffic_overhead_vs(none), 0.2);
}

// --------------------------------------------------------------- aggregates

TEST(SimResult, ComparisonHelpers) {
  SimResult base;
  base.amat_cycles = 100.0;
  base.dram_traffic_blocks = 1000;
  base.total_power_mw = 400.0;
  base.ipc = 1.0;
  SimResult better;
  better.amat_cycles = 75.0;
  better.dram_traffic_blocks = 1100;
  better.total_power_mw = 402.0;
  better.ipc = 1.2;
  EXPECT_NEAR(better.amat_reduction_vs(base), 0.25, 1e-9);
  EXPECT_NEAR(better.traffic_overhead_vs(base), 0.10, 1e-9);
  EXPECT_NEAR(better.power_increase_vs(base), 0.005, 1e-9);
  EXPECT_NEAR(better.ipc_gain_vs(base), 0.20, 1e-9);
}

TEST(SimResult, HelpersHandleZeroBaselines) {
  SimResult zero;
  SimResult x;
  x.amat_cycles = 10.0;
  EXPECT_EQ(x.amat_reduction_vs(zero), 0.0);
  EXPECT_EQ(x.traffic_overhead_vs(zero), 0.0);
  EXPECT_EQ(x.power_increase_vs(zero), 0.0);
  EXPECT_EQ(x.ipc_gain_vs(zero), 0.0);
}

TEST(Simulator, PowerAndIpcArePopulated) {
  trace::TraceBatch records;
  Cycle t = 0;
  for (int i = 0; i < 2000; ++i) {
    records.push_back(rec(static_cast<Address>(i % 300) * kBlockBytes * 7,
                          t += 40));
  }
  const auto r = Simulator::run(small_config(), null_factory(), "none",
                                records);
  EXPECT_GT(r.total_power_mw, 0.0);
  EXPECT_GT(r.dram_power_mw, 0.0);
  EXPECT_GT(r.sram_power_mw, 0.0);
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_GT(r.elapsed, 0u);
}

// --------------------------------------------------------- experiment runner

TEST(Experiment, KindNamesRoundTrip) {
  for (PrefetcherKind k :
       {PrefetcherKind::kNone, PrefetcherKind::kBop, PrefetcherKind::kSpp,
        PrefetcherKind::kPlanaria, PrefetcherKind::kPlanariaSlpOnly,
        PrefetcherKind::kPlanariaTlpOnly, PrefetcherKind::kNextLine,
        PrefetcherKind::kStride}) {
    EXPECT_EQ(prefetcher_kind_from_name(prefetcher_kind_name(k)), k);
  }
  EXPECT_THROW(prefetcher_kind_from_name("doom"), std::invalid_argument);
}

TEST(Experiment, RunProducesNamedResult) {
  ExperimentRunner runner(small_config(), 20000);
  const auto r = runner.run("HoK", PrefetcherKind::kPlanaria);
  EXPECT_EQ(r.prefetcher, "planaria");
  EXPECT_GT(r.demand_reads, 1000u);
  EXPECT_GT(r.storage_bits, 0u);
}

TEST(Experiment, UnknownAppThrows) {
  ExperimentRunner runner(small_config(), 1000);
  EXPECT_THROW(runner.run("DOOM", PrefetcherKind::kNone), std::out_of_range);
}

TEST(Experiment, AblationKindsDiffer) {
  ExperimentRunner runner(small_config(), 20000);
  const auto slp = runner.run("HoK", PrefetcherKind::kPlanariaSlpOnly);
  const auto tlp = runner.run("HoK", PrefetcherKind::kPlanariaTlpOnly);
  EXPECT_EQ(slp.tlp_issues, 0u);
  EXPECT_EQ(tlp.slp_issues, 0u);
}

TEST(Experiment, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(geomean_ratio({0.5, 2.0}), 1.0, 1e-9);
  EXPECT_EQ(geomean_ratio({1.0, -1.0}), 0.0);
}

TEST(Experiment, RecordsFromEnvParses) {
  // Not set in the test environment; returns the fallback.
  unsetenv("PLANARIA_RECORDS");
  EXPECT_EQ(records_from_env(123), 123u);
  setenv("PLANARIA_RECORDS", "4567", 1);
  EXPECT_EQ(records_from_env(123), 4567u);
  // "-1" and the overflow once parsed as 2^64-1 (strtoull negates the one
  // and saturates on the other).
  for (const char* bad : {"bogus", "0", "-1", "+4", " 4", "4 ", "12x", "4.5",
                          "99999999999999999999999"}) {
    setenv("PLANARIA_RECORDS", bad, 1);
    EXPECT_THROW(records_from_env(123), std::invalid_argument)
        << "accepted PLANARIA_RECORDS=" << bad;
  }
  unsetenv("PLANARIA_RECORDS");
}

TEST(Checkpoint, EveryFromEnvParsesAndRejects) {
  unsetenv("PLANARIA_CHECKPOINT_EVERY");
  EXPECT_EQ(CheckpointConfig::from_env().every, 0u);
  setenv("PLANARIA_CHECKPOINT_EVERY", "0", 1);
  EXPECT_EQ(CheckpointConfig::from_env().every, 0u);
  setenv("PLANARIA_CHECKPOINT_EVERY", "5000", 1);
  EXPECT_EQ(CheckpointConfig::from_env().every, 5000u);
  // These were silently ignored ("abc") or wrapped to 2^64-1 ("-1").
  for (const char* bad : {"abc", "-1", "+4", " 4", "4 ", "12x", "4.5",
                          "99999999999999999999999"}) {
    setenv("PLANARIA_CHECKPOINT_EVERY", bad, 1);
    EXPECT_THROW(CheckpointConfig::from_env(), std::invalid_argument)
        << "accepted PLANARIA_CHECKPOINT_EVERY=" << bad;
  }
  unsetenv("PLANARIA_CHECKPOINT_EVERY");
}

}  // namespace
}  // namespace planaria::sim
