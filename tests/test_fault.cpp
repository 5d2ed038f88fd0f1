// Tests for the fault-injection layer (src/fault): plan validation, the
// determinism contract of FaultInjector streams, the roll()/record()
// counting split, and the end-to-end properties the chaos gate depends on —
// zero-fault runs stay bit-identical, armed runs reproduce exactly (serial
// and channel-sharded), and recovered violations reconcile with the
// injector's applied-fault counters.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace {

namespace check = planaria::check;
namespace fault = planaria::fault;
namespace sim = planaria::sim;
namespace trace = planaria::trace;
using fault::FaultClass;
using fault::FaultInjector;
using fault::FaultPlan;

// ---------------------------------------------------------------------------
// FaultPlan

TEST(FaultPlan, DefaultPlanInjectsNothing) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any_enabled());
  for (int c = 0; c < fault::kFaultClassCount; ++c) {
    EXPECT_FALSE(plan.enabled(static_cast<FaultClass>(c)));
  }
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, SingleArmsExactlyOneClass) {
  const auto plan = FaultPlan::single(FaultClass::kPrefetchDrop, 0.25, 7);
  EXPECT_TRUE(plan.any_enabled());
  EXPECT_EQ(plan.seed, 7u);
  for (int c = 0; c < fault::kFaultClassCount; ++c) {
    const auto fault_class = static_cast<FaultClass>(c);
    EXPECT_EQ(plan.enabled(fault_class),
              fault_class == FaultClass::kPrefetchDrop);
  }
}

TEST(FaultPlan, ValidateRejectsOutOfRangeRates) {
  FaultPlan plan;
  plan.rate[static_cast<int>(FaultClass::kDramStall)] = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = {};
  plan.rate[static_cast<int>(FaultClass::kSlpPatternFlip)] = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, ValidateRejectsZeroIntervalsWhileArmed) {
  FaultPlan plan = FaultPlan::single(FaultClass::kDramStall, 0.5, 1);
  plan.dram_stall_cycles = 0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = FaultPlan::single(FaultClass::kPrefetchDelay, 0.5, 1);
  plan.prefetch_delay_cycles = 0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  // The same zero intervals are fine while their class is disarmed.
  plan = {};
  plan.dram_stall_cycles = 0;
  plan.prefetch_delay_cycles = 0;
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, EveryClassHasAName) {
  for (int c = 0; c < fault::kFaultClassCount; ++c) {
    const char* name = fault::fault_class_name(static_cast<FaultClass>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// FaultInjector determinism

std::vector<bool> decision_sequence(FaultInjector& injector, FaultClass c,
                                    int n) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(injector.roll(c));
  return out;
}

TEST(FaultInjector, SameSeedSameStreamReproducesDecisions) {
  const auto plan = FaultPlan::single(FaultClass::kPrefetchDrop, 0.3, 42);
  FaultInjector a(plan, 0);
  FaultInjector b(plan, 0);
  EXPECT_EQ(decision_sequence(a, FaultClass::kPrefetchDrop, 512),
            decision_sequence(b, FaultClass::kPrefetchDrop, 512));
}

TEST(FaultInjector, SiblingStreamsAreDisjoint) {
  const auto plan = FaultPlan::single(FaultClass::kPrefetchDrop, 0.3, 42);
  FaultInjector a(plan, 0);
  FaultInjector b(plan, 1);
  FaultInjector ingest(plan, FaultInjector::kIngestStream);
  const auto sa = decision_sequence(a, FaultClass::kPrefetchDrop, 512);
  EXPECT_NE(sa, decision_sequence(b, FaultClass::kPrefetchDrop, 512));
  EXPECT_NE(sa, decision_sequence(ingest, FaultClass::kPrefetchDrop, 512));
}

TEST(FaultInjector, DisabledClassConsumesNoRandomness) {
  const auto plan = FaultPlan::single(FaultClass::kPrefetchDrop, 0.3, 9);
  FaultInjector plain(plan, 0);
  FaultInjector interleaved(plan, 0);
  std::vector<bool> a, b;
  for (int i = 0; i < 256; ++i) {
    a.push_back(plain.roll(FaultClass::kPrefetchDrop));
    // Rolling a disarmed class between armed rolls must not shift the armed
    // class's stream: disabled rolls consume nothing.
    EXPECT_FALSE(interleaved.roll(FaultClass::kDramStall));
    b.push_back(interleaved.roll(FaultClass::kPrefetchDrop));
  }
  EXPECT_EQ(a, b);
}

TEST(FaultInjector, RateOneAlwaysFiresRateZeroNever) {
  FaultPlan plan;
  plan.rate[static_cast<int>(FaultClass::kTraceCorruption)] = 1.0;
  for (int i = 0; i < 64; ++i) {
    FaultInjector injector(plan, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(injector.roll(FaultClass::kTraceCorruption));
    EXPECT_FALSE(injector.roll(FaultClass::kSlpPatternFlip));
  }
}

TEST(FaultInjector, RecordCountsApplyNotRolls) {
  const auto plan = FaultPlan::single(FaultClass::kSlpPatternFlip, 1.0, 3);
  FaultInjector injector(plan, 0);
  for (int i = 0; i < 10; ++i) injector.roll(FaultClass::kSlpPatternFlip);
  EXPECT_EQ(injector.injected(FaultClass::kSlpPatternFlip), 0u);
  EXPECT_EQ(injector.total_injected(), 0u);
  injector.record(FaultClass::kSlpPatternFlip);
  injector.record(FaultClass::kSlpPatternFlip);
  EXPECT_EQ(injector.injected(FaultClass::kSlpPatternFlip), 2u);
  EXPECT_EQ(injector.total_injected(), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end through the simulator

trace::TraceBatch test_trace(std::uint64_t records) {
  return trace::generate_app_trace(trace::paper_apps().front(), records);
}

sim::SimResult run_kind(const sim::SimConfig& config,
                        const trace::TraceBatch& records,
                        planaria::common::ThreadPool* pool = nullptr) {
  const auto kind = sim::PrefetcherKind::kPlanaria;
  return sim::Simulator::run(config, sim::make_prefetcher_factory(kind),
                             sim::prefetcher_kind_name(kind), records, pool);
}

TEST(FaultSimulation, ZeroFaultRunReportsZeroCounters) {
  const auto records = test_trace(5000);
  const auto result = run_kind(sim::SimConfig{}, records);
  EXPECT_EQ(result.fault_injected_total, 0u);
  EXPECT_EQ(result.fault_trace_corruptions, 0u);
  EXPECT_EQ(result.fault_slp_flips, 0u);
  EXPECT_EQ(result.fault_tlp_flips, 0u);
  EXPECT_EQ(result.fault_prefetch_drops, 0u);
  EXPECT_EQ(result.fault_prefetch_delays, 0u);
  EXPECT_EQ(result.fault_dram_stalls, 0u);
}

TEST(FaultSimulation, ArmedRunReproducesAcrossRunsAndThreadCounts) {
  const auto records = test_trace(8000);
  sim::SimConfig config;
  config.fault = FaultPlan::single(FaultClass::kPrefetchDrop, 0.05, 0xFA01);

  check::RecoveryScope scope;
  const auto first = run_kind(config, records);
  const auto second = run_kind(config, records);
  planaria::common::ThreadPool pool(4);
  const auto pooled = run_kind(config, records, &pool);

  EXPECT_GT(first.fault_prefetch_drops, 0u);
  EXPECT_EQ(first.fault_injected_total, first.fault_prefetch_drops);
  EXPECT_EQ(first.fault_prefetch_drops, second.fault_prefetch_drops);
  EXPECT_EQ(first.fault_prefetch_drops, pooled.fault_prefetch_drops);
  EXPECT_EQ(first.amat_cycles, second.amat_cycles);
  EXPECT_EQ(first.amat_cycles, pooled.amat_cycles);
  EXPECT_EQ(first.prefetch_issued, second.prefetch_issued);
  EXPECT_EQ(first.prefetch_issued, pooled.prefetch_issued);
}

TEST(FaultSimulation, DropRateOneSuppressesEveryPrefetch) {
  const auto records = test_trace(8000);
  const auto clean = run_kind(sim::SimConfig{}, records);
  ASSERT_GT(clean.prefetch_issued, 0u);

  sim::SimConfig config;
  config.fault = FaultPlan::single(FaultClass::kPrefetchDrop, 1.0, 0xFA02);
  check::RecoveryScope scope;
  const auto faulted = run_kind(config, records);

  // Every dedup-surviving candidate is dropped before reaching the channel,
  // so nothing issues — and the run still completes, drops counted.
  EXPECT_EQ(faulted.prefetch_issued, 0u);
  EXPECT_GT(faulted.fault_prefetch_drops, 0u);
  EXPECT_EQ(faulted.demand_reads + faulted.demand_writes, records.size());
}

TEST(FaultSimulation, TraceCorruptionRecoveredAndReconciled) {
  const auto records = test_trace(8000);
  sim::SimConfig config;
  config.fault = FaultPlan::single(FaultClass::kTraceCorruption, 0.01, 0xFA03);

  check::RecoveryScope scope;
  check::reset_violations();
  check::reset_recoveries();
  const auto result = run_kind(config, records);

  // Every corruption regresses an arrival, fires the time-order contract,
  // and is clamped back by the recovery hook — three counters, one number.
  EXPECT_GT(result.fault_trace_corruptions, 0u);
  EXPECT_EQ(check::violation_count(check::Category::kTimingMonotonicity),
            result.fault_trace_corruptions);
  EXPECT_EQ(check::total_recoveries(), result.fault_trace_corruptions);
  // Recovery means the run still completes over the full trace.
  EXPECT_EQ(result.demand_reads + result.demand_writes, records.size());
  check::reset_violations();
  check::reset_recoveries();
}

TEST(FaultSimulation, SlpFlipViolationsAreRecoveredNotFatal) {
  const auto records = test_trace(8000);
  sim::SimConfig config;
  config.fault = FaultPlan::single(FaultClass::kSlpPatternFlip, 0.02, 0xFA04);

  check::RecoveryScope scope;
  check::reset_violations();
  check::reset_recoveries();
  const auto result = run_kind(config, records);

  EXPECT_GT(result.fault_slp_flips, 0u);
  // Only flips that drag a pattern below the promote threshold AND get
  // issued before relearning manifest; each manifestation is recovered.
  EXPECT_LE(check::violation_count(check::Category::kTableOccupancy),
            result.fault_slp_flips);
  EXPECT_EQ(check::total_recoveries(), check::total_violations());
  EXPECT_EQ(result.demand_reads + result.demand_writes, records.size());
  check::reset_violations();
  check::reset_recoveries();
}

TEST(FaultSimulation, ConfigValidateRejectsBadFaultPlan) {
  sim::SimConfig config;
  config.fault.rate[static_cast<int>(FaultClass::kDramStall)] = 2.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(FaultPlanPerSession, DerivedPlansKeepRatesButDecorrelateSeeds) {
  FaultPlan base = FaultPlan::single(FaultClass::kPrefetchDrop, 0.25, 0xABCD);
  base.dram_stall_cycles = 777;

  const FaultPlan a = base.for_session(0);
  const FaultPlan b = base.for_session(1);
  // Same policy: rates and intervals are untouched, validity is preserved.
  for (int c = 0; c < fault::kFaultClassCount; ++c) {
    EXPECT_EQ(a.rate[c], base.rate[c]);
    EXPECT_EQ(b.rate[c], base.rate[c]);
  }
  EXPECT_EQ(a.dram_stall_cycles, base.dram_stall_cycles);
  EXPECT_NO_THROW(a.validate());
  // Different universe: adjacent ids (and the base itself) get distinct
  // seeds, so their injectors' decision sequences diverge immediately.
  EXPECT_NE(a.seed, base.seed);
  EXPECT_NE(a.seed, b.seed);

  // Stability: the derivation is a pure function of (plan, id) — the serve
  // layer rebuilds injectors from for_session at resume time and needs the
  // same sequence back.
  EXPECT_EQ(base.for_session(7).seed, base.for_session(7).seed);
  fault::FaultInjector first(base.for_session(7), 0);
  fault::FaultInjector again(base.for_session(7), 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(first.roll(FaultClass::kPrefetchDrop),
              again.roll(FaultClass::kPrefetchDrop));
  }
}

TEST(FaultPlanPerSession, SessionsDrawDisjointDecisionSequences) {
  const FaultPlan base =
      FaultPlan::single(FaultClass::kTraceCorruption, 0.5, 0x5E55);
  fault::FaultInjector a(base.for_session(3), 0);
  fault::FaultInjector b(base.for_session(4), 0);
  int agree = 0;
  const int kRolls = 2000;
  for (int i = 0; i < kRolls; ++i) {
    agree += a.roll(FaultClass::kTraceCorruption) ==
                     b.roll(FaultClass::kTraceCorruption)
                 ? 1
                 : 0;
  }
  // Independent fair-ish coins agree about half the time; identical streams
  // would agree always. Allow a wide band — this is a decorrelation check,
  // not a statistics test.
  EXPECT_GT(agree, kRolls / 4);
  EXPECT_LT(agree, 3 * kRolls / 4);
}

}  // namespace
