// Edge-path tests for the simulation layer: dirty writebacks reaching DRAM,
// late-prefetch merging, prefetch throttling under saturation, redundant
// prefetch suppression, and the analytic IPC model's monotonicity.
#include <gtest/gtest.h>

#include <utility>

#include "check/contract.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"

namespace planaria::sim {
namespace {

trace::TraceRecord rec(Address a, Cycle t,
                       AccessType type = AccessType::kRead) {
  return trace::TraceRecord{addr::block_align(a), t, type, DeviceId::kCpuBig};
}

SimConfig tiny_cache_config() {
  SimConfig config;
  config.cache.size_bytes = 1 << 12;  // 4KB slice: 64 lines, easy to thrash
  config.cache.ways = 4;
  return config;
}

TEST(SimulatorEdge, DirtyWritebackReachesDram) {
  // Fill a line, dirty it, then thrash its set so the eviction writes back.
  const auto config = tiny_cache_config();
  trace::TraceBatch records;
  Cycle t = 100;
  const Address base = addr::compose_segment(0, 0, 0);
  records.push_back(rec(base, t));                      // miss + fill
  records.push_back(rec(base, t += 400, AccessType::kWrite));  // dirty it
  // 64 sets in channel 0's slice; same set repeats every 64 * 16 blocks...
  // simpler: hammer many distinct pages' block 0 so every set cycles.
  for (int p = 1; p < 600; ++p) {
    records.push_back(rec(addr::compose_segment(static_cast<PageNumber>(p), 0, 0),
                          t += 400));
  }
  const auto r = Simulator::run(config, make_prefetcher_factory(PrefetcherKind::kNone),
                                "none", records);
  EXPECT_GT(r.dram_writes, 0u) << "dirty eviction must write back to DRAM";
}

TEST(SimulatorEdge, LatePrefetchStillReducesLatency) {
  // A prefetch issued just before the demand: the demand merges with the
  // in-flight fill and pays only the residual latency.
  const auto config = tiny_cache_config();
  // next-line on a sequential stream with arrivals tighter than DRAM latency:
  // every prefetch is late, yet AMAT must still improve via merging.
  trace::TraceBatch records;
  Cycle t = 100;
  for (int i = 0; i < 200; ++i) {
    records.push_back(rec(addr::compose_segment(3, 0, 0) +
                              static_cast<Address>(i) * kBlockBytes,
                          t += 30));  // < cold-miss latency
  }
  const auto none = Simulator::run(
      config, make_prefetcher_factory(PrefetcherKind::kNone), "none", records);
  const auto nl = Simulator::run(
      config, make_prefetcher_factory(PrefetcherKind::kNextLine), "next-line",
      records);
  EXPECT_LT(nl.amat_cycles, none.amat_cycles);
}

TEST(SimulatorEdge, PrefetchDropsUnderSaturation) {
  SimConfig config = tiny_cache_config();
  config.dram.controller.read_queue_depth = 8;
  trace::TraceBatch records;
  Cycle t = 100;
  // Dense random misses + an aggressive prefetcher: the tiny queue must
  // throttle speculation.
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    records.push_back(rec(addr::compose_segment(
                              static_cast<PageNumber>(rng.next_below(4096)), 0,
                              static_cast<int>(rng.next_below(16))),
                          t += 6));
  }
  const auto r = Simulator::run(
      config, make_prefetcher_factory(PrefetcherKind::kNextLine), "next-line",
      records);
  EXPECT_GT(r.prefetch_dropped, 0u);
}

TEST(SimulatorEdge, RedundantPrefetchesNeverReachDram) {
  // Planaria re-triggers on every miss of a page; dedupe against cache and
  // in-flight must keep DRAM prefetch reads bounded by distinct blocks.
  SimConfig config;
  config.cache.size_bytes = 1 << 18;
  const trace::TraceBatch trace(
      trace::generate_app_trace(trace::app_by_name("HoK"), 50000));
  const auto r = Simulator::run(
      config, make_prefetcher_factory(PrefetcherKind::kPlanaria), "planaria",
      trace);
  EXPECT_LE(r.prefetch_issued, r.dram_reads)
      << "every issued prefetch is a distinct DRAM read";
}

TEST(SimulatorEdge, IpcFallsWithAmat) {
  // The analytic core model must be monotone: worse AMAT => lower IPC.
  CpuModelParams cpu;
  SimResult fast;
  fast.amat_cycles = 40;
  SimResult slow;
  slow.amat_cycles = 80;
  // Reconstruct the model by running two tiny sims is overkill; check the
  // formula through the public result of two real runs instead.
  SimConfig config = tiny_cache_config();
  trace::TraceBatch hits, misses;
  Cycle t = 100;
  for (int i = 0; i < 500; ++i) {
    hits.push_back(rec(addr::compose_segment(1, 0, i % 4), t += 100));
    misses.push_back(rec(addr::compose_segment(static_cast<PageNumber>(i), 0, 0),
                         t += 100));
  }
  const auto hit_run = Simulator::run(
      config, make_prefetcher_factory(PrefetcherKind::kNone), "none", hits);
  const auto miss_run = Simulator::run(
      config, make_prefetcher_factory(PrefetcherKind::kNone), "none", misses);
  EXPECT_LT(hit_run.amat_cycles, miss_run.amat_cycles);
  EXPECT_GT(hit_run.ipc, miss_run.ipc);
}

TEST(SimulatorEdge, WriteHeavyTraceIsStable) {
  SimConfig config = tiny_cache_config();
  trace::TraceBatch records;
  Cycle t = 100;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    records.push_back(rec(addr::compose_segment(
                              static_cast<PageNumber>(rng.next_below(256)), 0,
                              static_cast<int>(rng.next_below(16))),
                          t += 20,
                          rng.chance(0.8) ? AccessType::kWrite
                                          : AccessType::kRead));
  }
  const auto r = Simulator::run(
      config, make_prefetcher_factory(PrefetcherKind::kNone), "none", records);
  EXPECT_GT(r.demand_writes, r.demand_reads);
  EXPECT_GT(r.dram_writes, 0u);
  EXPECT_GT(r.total_power_mw, 0.0);
}

TEST(SimulatorEdge, TimelinessAndUtilizationPopulated) {
  SimConfig config = tiny_cache_config();
  // Tight sequential stream: next-line prefetches are systematically late,
  // so demands merge with airborne prefetch fills.
  trace::TraceBatch records;
  Cycle t = 100;
  for (int i = 0; i < 300; ++i) {
    records.push_back(rec(addr::compose_segment(3, 0, 0) +
                              static_cast<Address>(i) * kBlockBytes,
                          t += 25));
  }
  const auto r = Simulator::run(
      config, make_prefetcher_factory(PrefetcherKind::kNextLine), "next-line",
      records);
  EXPECT_GT(r.late_prefetch_merges, 0u);
  EXPECT_GT(r.data_bus_utilization, 0.0);
  EXPECT_LT(r.data_bus_utilization, 1.0);
}

TEST(SimulatorEdge, SmsAndCompositesRunEndToEnd) {
  // Smoke: every registered prefetcher kind survives a real workload.
  SimConfig config;
  const trace::TraceBatch trace(
      trace::generate_app_trace(trace::app_by_name("KO"), 30000));
  for (const auto kind :
       {PrefetcherKind::kSms, PrefetcherKind::kSerialComposite,
        PrefetcherKind::kParallelComposite, PrefetcherKind::kNextLine,
        PrefetcherKind::kStride}) {
    const auto r = Simulator::run(config, make_prefetcher_factory(kind),
                                  prefetcher_kind_name(kind), trace);
    EXPECT_GT(r.demand_reads, 0u) << prefetcher_kind_name(kind);
    EXPECT_GT(r.amat_cycles, 0.0) << prefetcher_kind_name(kind);
  }
}

TEST(SimulatorEdge, OutOfRangeSpanIsDroppedWithoutTouchingState) {
  // Under kCount the span contract returns instead of aborting; the span must
  // then be ignored whole — no column read past the batch (ASan catches an
  // overrun here), no giant reserve, no simulator state changed.
  const trace::TraceBatch trace(
      trace::generate_app_trace(trace::app_by_name("HoK"), 4000));
  const std::size_t n = trace.size();
  const auto factory = make_prefetcher_factory(PrefetcherKind::kPlanaria);
  Simulator reference(SimConfig{}, factory, "planaria");
  reference.run_sharded(trace, 0, 2000);
  reference.run_sharded(trace, 2000, n);
  const SimResult expected = reference.finish();

  check::CountingScope scope;
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{2000, n + 1},
        std::pair<std::size_t, std::size_t>{3000, 1000}}) {
    SCOPED_TRACE("span [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ")");
    check::reset_violations();
    Simulator sim(SimConfig{}, factory, "planaria");
    sim.run_sharded(trace, 0, 2000);
    sim.run_sharded(trace, begin, end);
    EXPECT_EQ(check::total_violations(), 1u);
    sim.run_sharded(trace, 2000, n);
    EXPECT_TRUE(sim.finish() == expected);
    EXPECT_EQ(check::total_violations(), 1u);
  }
  check::reset_violations();
}

}  // namespace
}  // namespace planaria::sim
