// Multi-tenant serving loop tests (DESIGN.md §15).
//
// The contracts under test, in rough order of load-bearing-ness:
//   * Determinism: a fleet's outcomes, counters and rolling summaries are a
//     pure function of (config, specs) — identical at 1 vs 4 threads, and a
//     server killed mid-serve and restarted from its checkpoints finishes
//     byte-identical to the uninterrupted run (the audit's --stage serve
//     repeats this over seeded kill points; here we pin one).
//   * Fault isolation: drill faults delay a session's scheduling but never
//     change what it feeds its simulator — per-session SimResults with
//     drills armed equal the drill-free run's for every surviving session.
//   * Explicit backpressure: admission and ingest beyond their budgets
//     defer and count; shed sessions account their queued remainder; the
//     record-conservation identities hold at drain.
//   * Graceful drain: pending sessions reject, queues flush to zero, live
//     sessions finalize with partial results.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/vfs.hpp"
#include "serve/serve.hpp"

namespace planaria {
namespace {

namespace fs = std::filesystem;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "planaria-test-serve";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string subdir(const char* name) const {
    const fs::path p = dir_ / name;
    fs::create_directories(p);
    return p.string();
  }

  fs::path dir_;
};

serve::ServeConfig small_config() {
  serve::ServeConfig config;
  config.records_per_session = 3000;
  config.max_live_sessions = 4;
  config.queue_capacity = 512;
  config.ingest_per_tick = 256;
  config.quantum_records = 128;
  return config;
}

std::vector<serve::SessionSpec> small_fleet() {
  std::vector<serve::SessionSpec> fleet;
  const char* apps[] = {"HoK", "Fort", "TikT"};
  const char* devices[] = {"phone", "tablet"};
  for (std::uint64_t i = 0; i < 6; ++i) {
    serve::SessionSpec spec;
    spec.app = apps[i % 3];
    spec.kind = i % 2 == 0 ? sim::PrefetcherKind::kPlanaria
                           : sim::PrefetcherKind::kStride;
    spec.user_seed = 100 + i;
    spec.device = devices[i % 2];
    fleet.push_back(spec);
  }
  return fleet;
}

/// The identities every finished serve must satisfy: terminal-state
/// partition and record conservation (nothing dropped silently).
void expect_reconciled(const serve::SessionServer& server) {
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.submitted, c.admitted + c.sessions_rejected);
  EXPECT_EQ(c.admitted, c.sessions_completed + c.sessions_drained +
                            c.sessions_shed_retry + c.sessions_shed_deadline);
  EXPECT_EQ(c.ingested_records, c.fed_records + c.shed_queued_records);
  EXPECT_EQ(server.queued_records(), 0u);
  // Checkpoint ledger: every attempt either landed or was charged as
  // degraded — a failed write is a shed, never a silent drop.
  EXPECT_EQ(c.ckpt_attempted, c.ckpt_written + c.ckpt_degraded);
}

TEST(ServeConfig, ValidateRejectsDegenerateKnobs) {
  serve::ServeConfig config = small_config();
  config.quantum_records = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.max_attempts = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.backoff_cap_ticks = 1;  // below base
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.session_fault_rate = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_config().validate());
}

TEST(ServeConfig, SessionStateNamesAndTerminality) {
  EXPECT_STREQ(serve::session_state_name(serve::SessionState::kLive), "live");
  EXPECT_STREQ(serve::session_state_name(serve::SessionState::kShedRetry),
               "shed-retry");
  EXPECT_FALSE(serve::session_state_terminal(serve::SessionState::kPending));
  EXPECT_FALSE(serve::session_state_terminal(serve::SessionState::kBackoff));
  EXPECT_TRUE(serve::session_state_terminal(serve::SessionState::kCompleted));
  EXPECT_TRUE(serve::session_state_terminal(serve::SessionState::kRejected));
}

TEST(Serve, FleetCompletesAndReconciles) {
  serve::SessionServer server(small_config(), 1);
  server.add_fleet(small_fleet());
  server.serve();
  ASSERT_TRUE(server.finished());
  const auto& outcomes = server.outcomes();
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.state, serve::SessionState::kCompleted) << "session " << o.id;
    EXPECT_EQ(o.records_fed, 3000u);
    EXPECT_GT(o.result.demand_reads, 0u);
  }
  expect_reconciled(server);
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.sessions_completed, 6u);
  EXPECT_EQ(c.ingested_records, 6u * 3000u);
  // max_live_sessions = 4 with 6 submitted: the last two must have deferred
  // at least once each.
  EXPECT_GE(c.admission_defers, 2u);
  // Rolling summaries cover every completed session, keyed both ways.
  EXPECT_EQ(server.summary().amat_by_app.groups.size(), 3u);
  EXPECT_EQ(server.summary().amat_by_device.groups.size(), 2u);
  std::uint64_t summarized = 0;
  for (const auto& [app, summary] : server.summary().amat_by_app.groups) {
    summarized += summary.count();
    EXPECT_GT(summary.quantile(0.5), 0.0) << app;
  }
  EXPECT_EQ(summarized, 6u);
}

// A session length the trace generator's per-stream budgets do not divide
// evenly: every session must still be fed exactly records_per_session.
TEST(Serve, UnevenSessionLengthCompletes) {
  serve::ServeConfig config = small_config();
  config.records_per_session = 4096;
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  server.serve();
  ASSERT_TRUE(server.finished());
  for (const auto& o : server.outcomes()) {
    EXPECT_EQ(o.state, serve::SessionState::kCompleted) << "session " << o.id;
    EXPECT_EQ(o.records_fed, 4096u);
  }
  expect_reconciled(server);
}

TEST(Serve, ThreadCountIsInvisible) {
  serve::SessionServer serial(small_config(), 1);
  serial.add_fleet(small_fleet());
  serial.serve();
  serve::SessionServer pooled(small_config(), 4);
  pooled.add_fleet(small_fleet());
  pooled.serve();
  EXPECT_TRUE(serial.outcomes() == pooled.outcomes());
  EXPECT_TRUE(serial.counters() == pooled.counters());
  EXPECT_TRUE(serial.summary() == pooled.summary());
}

TEST(Serve, DrillFaultsDelaySchedulingButNotResults) {
  serve::SessionServer calm(small_config(), 1);
  calm.add_fleet(small_fleet());
  calm.serve();

  serve::ServeConfig faulty = small_config();
  faulty.session_fault_rate = 0.10;
  faulty.max_attempts = 50;  // nothing sheds; every fault only delays
  serve::SessionServer drilled(faulty, 2);
  drilled.add_fleet(small_fleet());
  drilled.serve();

  const serve::ServeCounters& c = drilled.counters();
  EXPECT_GT(c.drills_injected, 0u);
  EXPECT_EQ(c.drills_injected, c.backoff_events);
  EXPECT_EQ(c.sessions_completed, 6u);
  ASSERT_EQ(drilled.outcomes().size(), calm.outcomes().size());
  for (std::size_t i = 0; i < calm.outcomes().size(); ++i) {
    // Same simulation, different schedule: the SimResult is bit-identical
    // even though end ticks and attempts differ.
    EXPECT_TRUE(drilled.outcomes()[i].result == calm.outcomes()[i].result)
        << "session " << i;
  }
  EXPECT_TRUE(drilled.summary() == calm.summary());
  expect_reconciled(drilled);
}

TEST(Serve, RetryBudgetShedsChronicallyFaultySessions) {
  serve::ServeConfig config = small_config();
  config.session_fault_rate = 1.0;  // every quantum faults
  config.max_attempts = 3;
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  server.serve();
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.sessions_shed_retry, 6u);
  EXPECT_EQ(c.sessions_completed, 0u);
  // Each session: (max_attempts - 1) backoffs, then the shedding fault.
  EXPECT_EQ(c.drills_injected, c.backoff_events + c.sessions_shed_retry);
  for (const auto& o : server.outcomes()) {
    EXPECT_EQ(o.state, serve::SessionState::kShedRetry);
    EXPECT_EQ(o.attempts, 3);
    EXPECT_EQ(o.records_fed, 0u);
  }
  expect_reconciled(server);
}

TEST(Serve, DeadlineWatchdogShedsSlowSessions) {
  serve::ServeConfig config = small_config();
  config.deadline_ticks = 5;  // 3000 records need ~24 quanta: nobody makes it
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  server.serve();
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.sessions_shed_deadline, 6u);
  EXPECT_EQ(c.deadline_violations, 6u);
  EXPECT_GT(c.shed_queued_records, 0u);
  expect_reconciled(server);
}

TEST(Serve, BackpressureDefersIngestWhenQueueFills) {
  serve::ServeConfig config = small_config();
  config.queue_capacity = 256;
  config.ingest_per_tick = 256;
  config.quantum_records = 64;  // drains slower than it fills
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  server.serve();
  EXPECT_GT(server.counters().ingest_defers, 0u);
  EXPECT_EQ(server.counters().sessions_completed, 6u);
  expect_reconciled(server);
}

TEST(Serve, GracefulDrainFlushesRejectsAndAccounts) {
  serve::ServeConfig config = small_config();
  config.max_live_sessions = 2;  // guarantee pending sessions at drain time
  serve::SessionServer server(config, 1);
  server.add_fleet(small_fleet());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(server.tick());
  server.request_drain();
  server.serve();
  ASSERT_TRUE(server.finished());
  const serve::ServeCounters& c = server.counters();
  EXPECT_EQ(c.sessions_rejected, 4u);
  EXPECT_EQ(c.sessions_drained, 2u);
  EXPECT_EQ(server.queued_records(), 0u);
  for (const auto& o : server.outcomes()) {
    if (o.state == serve::SessionState::kDrained) {
      EXPECT_GT(o.records_fed, 0u);
      EXPECT_LT(o.records_fed, 3000u);
      EXPECT_GT(o.result.demand_reads, 0u);  // partial result is real
    } else {
      EXPECT_EQ(o.state, serve::SessionState::kRejected);
      EXPECT_EQ(o.records_fed, 0u);
    }
  }
  // Drained partials stay out of the completed-session percentiles.
  EXPECT_TRUE(server.summary().amat_by_app.groups.empty());
  expect_reconciled(server);
}

/// Chaos-grade config: in-simulator faults armed per session plus drill
/// faults on the serving loop, checkpointing on.
serve::ServeConfig chaos_config(const std::string& checkpoint_dir) {
  serve::ServeConfig config = small_config();
  config.sim.fault.rate[static_cast<int>(fault::FaultClass::kSlpPatternFlip)] =
      0.01;
  config.sim.fault.rate[static_cast<int>(fault::FaultClass::kDramStall)] =
      0.005;
  config.session_fault_rate = 0.05;
  config.max_attempts = 50;
  config.checkpoint_dir = checkpoint_dir;
  config.checkpoint_every_ticks = 4;
  return config;
}

TEST_F(ServeTest, KilledServerResumesBitIdentically) {
  serve::SessionServer reference(chaos_config(subdir("ref")), 1);
  reference.add_fleet(small_fleet());
  reference.serve();

  const std::string dir = subdir("killed");
  {
    serve::SessionServer victim(chaos_config(dir), 2);
    victim.add_fleet(small_fleet());
    // Kill mid-serve, past at least one checkpoint boundary.
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(victim.tick());
  }  // destructor = the kill; no drain, no final checkpoint

  serve::SessionServer resumed(chaos_config(dir), 2);
  resumed.add_fleet(small_fleet());
  resumed.serve();
  EXPECT_TRUE(resumed.recovery().resumed);
  EXPECT_GT(resumed.recovery().resumed_tick, 0u);
  EXPECT_TRUE(resumed.outcomes() == reference.outcomes());
  EXPECT_TRUE(resumed.counters() == reference.counters());
  EXPECT_TRUE(resumed.summary() == reference.summary());
  expect_reconciled(resumed);
}

TEST_F(ServeTest, CorruptEnvelopeFallsBackToPrev) {
  serve::SessionServer reference(chaos_config(subdir("ref")), 1);
  reference.add_fleet(small_fleet());
  reference.serve();

  const std::string dir = subdir("killed");
  {
    serve::SessionServer victim(chaos_config(dir), 1);
    victim.add_fleet(small_fleet());
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(victim.tick());
  }
  // Simulate a torn envelope write: truncate current; .prev must carry.
  {
    const std::string envelope = dir + "/server.snap";
    ASSERT_TRUE(fs::exists(envelope));
    fs::resize_file(envelope, fs::file_size(envelope) / 2);
  }
  serve::SessionServer resumed(chaos_config(dir), 1);
  resumed.add_fleet(small_fleet());
  resumed.serve();
  EXPECT_TRUE(resumed.recovery().resumed);
  EXPECT_TRUE(resumed.recovery().fell_back);
  EXPECT_FALSE(resumed.recovery().notes.empty());
  EXPECT_TRUE(resumed.outcomes() == reference.outcomes());
  EXPECT_TRUE(resumed.counters() == reference.counters());
}

TEST_F(ServeTest, CheckpointEnospcDegradesNotCrashes) {
  // Reference run with quiet storage.
  serve::SessionServer reference(chaos_config(subdir("ref")), 1);
  reference.add_fleet(small_fleet());
  reference.serve();

  // Same fleet with ENOSPC injected across the checkpoint write sites: every
  // failed envelope becomes a ckpt_degraded shed (with a recovery note and a
  // bounded backoff re-attempt), and the ledger balances at drain.
  io::IoFaultInjector shim(
      io::IoFaultPlan::single(io::IoFaultClass::kEnospc, 0.4, 0xD15C));
  serve::SessionServer stormy(chaos_config(subdir("enospc")), 1);
  stormy.add_fleet(small_fleet());
  {
    io::ScopedFaultInjector armed(&shim);
    stormy.serve();
  }
  ASSERT_TRUE(stormy.finished());
  expect_reconciled(stormy);
  const serve::ServeCounters& c = stormy.counters();
  EXPECT_GT(shim.injected(io::IoFaultClass::kEnospc), 0u);
  EXPECT_GT(c.ckpt_degraded, 0u);
  EXPECT_GT(c.ckpt_written, 0u);
  EXPECT_FALSE(stormy.recovery().notes.empty());
  // Checkpointing is resilience plumbing, not simulation state: the served
  // results are byte-identical to the quiet-storage run's.
  EXPECT_TRUE(stormy.outcomes() == reference.outcomes());
  EXPECT_TRUE(stormy.summary() == reference.summary());
}

TEST_F(ServeTest, MissingCheckpointsColdStartStillMatches) {
  serve::SessionServer reference(chaos_config(subdir("ref")), 1);
  reference.add_fleet(small_fleet());
  reference.serve();
  // No prior run in this dir: resume finds nothing, serves cold, and the
  // result is still the same pure function of (config, specs).
  serve::SessionServer cold(chaos_config(subdir("fresh")), 1);
  cold.add_fleet(small_fleet());
  cold.serve();
  EXPECT_FALSE(cold.recovery().resumed);
  EXPECT_TRUE(cold.outcomes() == reference.outcomes());
  EXPECT_TRUE(cold.counters() == reference.counters());
}

TEST(Serve, AddSessionAfterStartThrows) {
  serve::SessionServer server(small_config(), 1);
  server.add_fleet(small_fleet());
  ASSERT_TRUE(server.tick());
  EXPECT_THROW(server.add_session(serve::SessionSpec{}), std::logic_error);
}

TEST(Serve, UnknownAppRejectedAtSubmitTime) {
  serve::SessionServer server(small_config(), 1);
  serve::SessionSpec spec;
  spec.app = "NotAnApp";
  EXPECT_THROW(server.add_session(spec), std::out_of_range);
}

TEST(Serve, ForEachReadySerialAndPooledAgree) {
  std::vector<int> serial(16, 0);
  serve::for_each_ready(nullptr, serial.size(),
                        [&serial](std::size_t i) { serial[i] = static_cast<int>(i); });
  common::ThreadPool pool(3);
  std::vector<int> pooled(16, 0);
  serve::for_each_ready(&pool, pooled.size(),
                        [&pooled](std::size_t i) { pooled[i] = static_cast<int>(i); });
  EXPECT_EQ(serial, pooled);
}

}  // namespace
}  // namespace planaria
