// Parallel execution engine tests.
//
// The contract the sweep engine sells is not "roughly the same results,
// faster" but *bit-identical* results at every thread count: the trace is
// sharded by channel (a pure function of address bits [11:10]), no simulator
// state crosses channels, and every merged quantity is either integer or
// reduced in fixed channel order. These tests hold that contract for every
// registered prefetcher kind, and cover the thread pool primitive itself plus
// the PLANARIA_THREADS validation and the contract-counter atomicity the
// concurrent paths rely on. Run them under PLANARIA_SANITIZE=thread to let
// TSan vet the synchronization.

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/contract.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace planaria {
namespace {

using common::ThreadPool;

// ---------------------------------------------------------------------------
// Thread pool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPool, StartupAndShutdownAcrossSizes) {
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }  // destructor joins cleanly with no tasks ever submitted
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool pool(0), std::invalid_argument);
}

TEST(ThreadPool, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(3);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroTasksIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body ran for n == 0"; });
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("unlucky");
                                   }
                                 }),
               std::runtime_error);
  // The pool must survive a failed batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ForEachReadySerialAndPooledAgree) {
  std::vector<int> serial(16, 0);
  common::for_each_ready(nullptr, serial.size(), [&serial](std::size_t i) {
    serial[i] = static_cast<int>(i);
  });
  common::ThreadPool pool(3);
  std::vector<int> pooled(16, 0);
  common::for_each_ready(&pool, pooled.size(), [&pooled](std::size_t i) {
    pooled[i] = static_cast<int>(i);
  });
  EXPECT_EQ(serial, pooled);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Mirrors the sweep shape: grid cells fan out on the pool and each cell
  // shards its channels on the same pool. The caller-participation design
  // must drain the inner batches even when every worker is busy.
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { leaves.fetch_add(1); });
  });
  EXPECT_EQ(leaves.load(), 32);
}

// ---------------------------------------------------------------------------
// PLANARIA_THREADS validation
// ---------------------------------------------------------------------------

class ThreadsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // lint: suppress(determinism) the test saves/restores PLANARIA_THREADS to exercise pool sizing
    const char* prior = std::getenv("PLANARIA_THREADS");
    if (prior != nullptr) saved_ = prior;
    unsetenv("PLANARIA_THREADS");
  }
  void TearDown() override {
    if (saved_.empty()) {
      unsetenv("PLANARIA_THREADS");
    } else {
      setenv("PLANARIA_THREADS", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

TEST_F(ThreadsEnvTest, UnsetAndEmptyFallBack) {
  EXPECT_EQ(ThreadPool::threads_from_env(3), 3u);
  setenv("PLANARIA_THREADS", "", 1);
  EXPECT_EQ(ThreadPool::threads_from_env(5), 5u);
}

TEST_F(ThreadsEnvTest, ParsesValidCounts) {
  setenv("PLANARIA_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::threads_from_env(7), 1u);
  setenv("PLANARIA_THREADS", "16", 1);
  EXPECT_EQ(ThreadPool::threads_from_env(7), 16u);
}

TEST_F(ThreadsEnvTest, RejectsMalformedValues) {
  for (const char* bad : {"0", "abc", "12x", "4.5", "-4", "999999999", "4097",
                          "+4", " 4", "4 ", "-1", "99999999999999999999999"}) {
    setenv("PLANARIA_THREADS", bad, 1);
    EXPECT_THROW(ThreadPool::threads_from_env(1), std::invalid_argument)
        << "accepted PLANARIA_THREADS=" << bad;
  }
}

// ---------------------------------------------------------------------------
// Contract counters under concurrency (the PR 1 atomics, exercised in anger)
// ---------------------------------------------------------------------------

TEST(ContractConcurrency, CountersAreExactUnderParallelViolations) {
  check::CountingScope scope;
  check::reset_violations();
  ThreadPool pool(4);
  constexpr std::size_t kN = 2000;
  pool.parallel_for(kN, [](std::size_t) {
    PLANARIA_INVARIANT_MSG(kTableOccupancy, false,
                           "deliberate violation for the concurrency test");
  });
  EXPECT_EQ(check::violation_count(check::Category::kTableOccupancy), kN);
  EXPECT_EQ(check::total_violations(), kN);
  check::reset_violations();
}

// ---------------------------------------------------------------------------
// Bit-identical simulation results
// ---------------------------------------------------------------------------

/// Exact comparison via SimResult::operator== (defaulted memberwise
/// equality). A few high-signal fields get their own EXPECT first so a
/// regression names the quantity that diverged; doubles are compared with ==
/// on purpose — the determinism contract is bit-identity, not tolerance.
void expect_bit_identical(const sim::SimResult& a, const sim::SimResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.demand_reads, b.demand_reads);
  EXPECT_EQ(a.amat_cycles, b.amat_cycles);
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.fault_injected_total, b.fault_injected_total);
  EXPECT_TRUE(a == b) << "SimResult differs in a field not itemized above";
}

trace::TraceBatch test_trace(std::uint64_t records) {
  return trace::generate_app_trace(trace::paper_apps().front(), records);
}

TEST(ParallelSimulation, ShardedRunMatchesStepLoopForAllKinds) {
  const auto records = test_trace(30000);
  ThreadPool pool(4);
  for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
    const char* name = sim::prefetcher_kind_name(kind);

    // Reference: the incremental per-record dispatch through the public
    // step() API, the original serial execution model.
    sim::Simulator serial(sim::SimConfig{}, sim::make_prefetcher_factory(kind),
                          name);
    for (std::size_t i = 0; i < records.size(); ++i) {
      serial.step(records.record(i));
    }
    const sim::SimResult expected = serial.finish();

    const sim::SimResult sharded = sim::Simulator::run(
        sim::SimConfig{}, sim::make_prefetcher_factory(kind), name, records);
    expect_bit_identical(expected, sharded, std::string(name) + " sharded");

    const sim::SimResult parallel =
        sim::Simulator::run(sim::SimConfig{}, sim::make_prefetcher_factory(kind),
                            name, records, &pool);
    expect_bit_identical(expected, parallel, std::string(name) + " parallel");
  }
}

// The same identity with ingest corruption armed under kRecover: every
// corrupted or clamped arrival reaches its channel through the shard's
// changed-arrival list rather than the batch column. The step loop, one
// whole-span run_sharded (serial and pooled) and uneven consecutive spans
// must agree bit for bit for every kind, injected-fault counts included.
TEST(ParallelSimulation, ShardedRunMatchesStepLoopWithIngestCorruption) {
  const auto records = test_trace(30000);
  const std::vector<std::size_t> cuts = {0, 1, 4097, 12345, 29999,
                                         records.size()};
  ThreadPool pool(4);
  sim::SimConfig config;
  config.fault =
      fault::FaultPlan::single(fault::FaultClass::kTraceCorruption, 0.02, 0x5A4D);
  check::RecoveryScope scope;
  for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
    const char* name = sim::prefetcher_kind_name(kind);
    sim::Simulator serial(config, sim::make_prefetcher_factory(kind), name);
    for (std::size_t i = 0; i < records.size(); ++i) {
      serial.step(records.record(i));
    }
    const sim::SimResult expected = serial.finish();
    ASSERT_GT(expected.fault_trace_corruptions, 0u) << name;

    for (common::ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      sim::Simulator whole(config, sim::make_prefetcher_factory(kind), name);
      whole.run_sharded(records, p);
      EXPECT_TRUE(whole.finish() == expected) << name << " whole span";

      sim::Simulator chunked(config, sim::make_prefetcher_factory(kind), name);
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        chunked.run_sharded(records, cuts[c], cuts[c + 1], p);
      }
      EXPECT_TRUE(chunked.finish() == expected) << name << " uneven spans";
    }
  }
  check::reset_violations();
  check::reset_recoveries();
}

// A span longer than run_sharded's internal chunk (2^20 records) is split
// into chunks whose changed-arrival indices restart at each chunk; the
// result must still equal the per-record step loop.
TEST(ParallelSimulation, ShardedRunAcrossInternalChunksMatchesStepLoop) {
  const auto records = test_trace((std::uint64_t{1} << 20) + 5000);
  sim::SimConfig config;
  config.fault =
      fault::FaultPlan::single(fault::FaultClass::kTraceCorruption, 0.001, 0xC4);
  check::RecoveryScope scope;
  const auto factory = [] {
    return sim::make_prefetcher_factory(sim::PrefetcherKind::kNextLine);
  };
  sim::Simulator serial(config, factory(), "next-line");
  for (std::size_t i = 0; i < records.size(); ++i) {
    serial.step(records.record(i));
  }
  const sim::SimResult expected = serial.finish();
  ThreadPool pool(4);
  sim::Simulator sharded(config, factory(), "next-line");
  sharded.run_sharded(records, &pool);
  EXPECT_TRUE(sharded.finish() == expected);
  check::reset_violations();
  check::reset_recoveries();
}

TEST(ParallelSimulation, RepeatedParallelRunsAreStable) {
  // Scheduling nondeterminism must never leak into results: run the same
  // configuration several times on a pool and demand identical output.
  const auto records = test_trace(20000);
  ThreadPool pool(4);
  const auto factory = [] {
    return sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria);
  };
  const sim::SimResult first =
      sim::Simulator::run(sim::SimConfig{}, factory(), "planaria", records, &pool);
  for (int i = 0; i < 3; ++i) {
    const sim::SimResult again = sim::Simulator::run(
        sim::SimConfig{}, factory(), "planaria", records, &pool);
    expect_bit_identical(first, again, "repeat " + std::to_string(i));
  }
}

// The runner feeds each cell's Simulator one 2^16-row AppTraceStream chunk
// at a time, the cells on the pool. At a length that is no multiple of the
// chunk, each result must still equal one Simulator::run over the whole
// generated trace, serially and on a pool.
TEST(StreamedRun, RunnerMatchesWholeTraceForAllKinds) {
  constexpr std::uint64_t kRecords = 200000;  // 3 whole chunks + 3392 rows
  static_assert(kRecords % (std::uint64_t{1} << 16) != 0);
  const auto& kinds = sim::all_prefetcher_kinds();
  const auto trace =
      trace::generate_app_trace(trace::app_by_name("HoK"), kRecords);
  std::vector<sim::SimResult> whole;
  for (const sim::PrefetcherKind kind : kinds) {
    whole.push_back(sim::Simulator::run(sim::SimConfig{},
                                        sim::make_prefetcher_factory(kind),
                                        sim::prefetcher_kind_name(kind),
                                        trace));
  }
  for (const std::size_t threads : {1u, 4u}) {
    sim::ExperimentRunner runner(sim::SimConfig{}, kRecords, threads);
    const std::vector<sim::SimResult> streamed = runner.run("HoK", kinds);
    ASSERT_EQ(streamed.size(), kinds.size());
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      expect_bit_identical(whole[k], streamed[k],
                           std::string(sim::prefetcher_kind_name(kinds[k])) +
                               " at " + std::to_string(threads) + " threads");
    }
  }
}

TEST(ParallelSweep, MatchesSerialSweepBitForBit) {
  const std::vector<sim::PrefetcherKind> kinds = {
      sim::PrefetcherKind::kNone, sim::PrefetcherKind::kBop,
      sim::PrefetcherKind::kPlanaria};
  sim::ExperimentRunner serial(sim::SimConfig{}, 15000, 1);
  sim::ExperimentRunner parallel(sim::SimConfig{}, 15000, 4);
  EXPECT_EQ(serial.threads(), 1u);
  EXPECT_EQ(parallel.threads(), 4u);

  const auto a = serial.sweep(kinds);
  const auto b = parallel.sweep(kinds);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [app, per_kind] : a) {
    ASSERT_TRUE(b.count(app)) << app;
    ASSERT_EQ(per_kind.size(), b.at(app).size());
    for (const auto& [kind_name, result] : per_kind) {
      ASSERT_TRUE(b.at(app).count(kind_name)) << app << "/" << kind_name;
      expect_bit_identical(result, b.at(app).at(kind_name),
                           app + "/" + kind_name);
    }
  }
}

TEST(ParallelSimulation, RunnerRejectsZeroThreads) {
  EXPECT_THROW(sim::ExperimentRunner(sim::SimConfig{}, 1000, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace planaria
