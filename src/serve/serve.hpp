// Multi-tenant serving loop (DESIGN.md §15).
//
// The sweep machinery (ExperimentRunner) answers "run this grid once";
// production serving is a different shape: thousands of tenant sessions
// arriving against a fixed live-capacity budget, each streaming its own
// trace through its own prefetcher/simulator stack, with slow, bursty and
// faulty tenants that must degrade *their own* session and nothing else.
// SessionServer is that loop, built from the layers below it:
//
//   * Backpressure, never silent drops. Admission beyond max_live_sessions
//     defers (admission_defers); ingest beyond queue_capacity defers
//     (ingest_defers); a session that exhausts its retry budget or deadline
//     is shed with its queued remainder counted (shed_queued_records). Every
//     record is accounted: ingested == fed + shed_queued at drain.
//   * Deterministic time. The server advances a tick counter — admission,
//     ingest windows, quanta, backoff delays, deadlines and checkpoint
//     cadence are all tick-denominated. No wall clock anywhere (the lint
//     determinism bans apply to this module like any other), so a run is a
//     pure function of (config, specs): any thread count, any kill point.
//   * Bounded retry with seeded exponential backoff. Session-level faults —
//     drill faults rolled from a fault::FaultInjector on a per-session
//     stream, or a real exception escaping a quantum — cost one attempt and
//     park the session for base << (attempt-1) ticks (capped); max_attempts
//     faults shed it (kShedRetry). Drill decisions come at quantum start,
//     before any simulator mutation, so an armed drill plan delays
//     scheduling but never changes what a surviving session feeds its
//     simulator: per-session SimResults are byte-identical with drills on
//     or off.
//   * Crash safety. With checkpointing enabled the server periodically
//     writes one snapshot per live session (sim::write_checkpoint, rotation
//     and all) plus a server envelope (tick, counters, every session's
//     cursors/attempts/injector state, finished results) under the same
//     current/.prev retention. A restarted server resumes every live
//     session bit-identically: envelope current, then .prev, then cold; per
//     session its snapshot, then .prev, then a cold replay of the already-
//     fed prefix. planaria-audit --stage serve kills a fleet at seeded
//     ticks and requires byte-identical outcomes, summaries and counters
//     versus the uninterrupted run, at 1 and 4 threads.
//   * Graceful drain. request_drain() stops admissions (pending sessions
//     are rejected, counted) and source ingest; queued records flush
//     through the simulators; sessions finalize (kCompleted if the source
//     was fully ingested, else kDrained with a partial result); a final
//     checkpoint lands; zero records remain queued.
//
// Within a tick: admit (serial, id order) -> ingest (serial, id order) ->
// run one quantum per runnable session (parallel over the pool; each task
// touches only its own session) -> post-pass (serial, id order: counters,
// fault/backoff/shed, completions, deadlines) -> checkpoint if due. All
// cross-session aggregation happens in the serial phases, which is what
// makes the loop thread-count-invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "io/vfs.hpp"
#include "sim/checkpoint.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"
#include "trace/batch.hpp"

namespace planaria::serve {

/// Serving-loop knobs. Defaults give a small but fully exercised loop;
/// validate() rejects degenerate values that would stall the tick cycle.
struct ServeConfig {
  sim::SimConfig sim;                 ///< per-session simulator config
  std::uint64_t records_per_session = 20000;  ///< source length per tenant
  std::size_t max_live_sessions = 64;   ///< admission budget (backpressure)
  std::uint64_t queue_capacity = 4096;  ///< per-session ingest queue bound
  std::uint64_t ingest_per_tick = 1024; ///< source arrival rate per session
  std::uint64_t quantum_records = 512;  ///< records simulated per quantum
  std::uint64_t deadline_ticks = 0;     ///< shed after N ticks live; 0 = off
  int max_attempts = 3;                 ///< session faults before kShedRetry
  std::uint64_t backoff_base_ticks = 2; ///< first retry delay
  std::uint64_t backoff_cap_ticks = 64; ///< exponential backoff ceiling
  /// Per-quantum drill fault probability (fault::kTraceCorruption rolled on
  /// a per-session stream — "tenant submitted a malformed batch"). 0 = off.
  double session_fault_rate = 0.0;
  std::uint64_t drill_seed = 0xD811;  ///< seed for the drill fault streams
  std::string checkpoint_dir;             ///< empty = no crash safety
  std::uint64_t checkpoint_every_ticks = 0;  ///< envelope cadence; 0 = off
  bool checkpointing() const {
    return !checkpoint_dir.empty() && checkpoint_every_ticks > 0;
  }
  void validate() const;
};

/// One tenant: which app trace it streams, which prefetcher serves it, and
/// the seed that individualizes its trace (two tenants running the same app
/// stream different traffic). `device` is a reporting label only.
struct SessionSpec {
  std::string app = "HoK";
  sim::PrefetcherKind kind = sim::PrefetcherKind::kPlanaria;
  std::uint64_t user_seed = 1;
  std::string device = "phone";
  friend bool operator==(const SessionSpec&, const SessionSpec&) = default;
};

/// Session lifecycle. Terminal states partition every admitted-or-not
/// session: admitted == completed + drained + shed_retry + shed_deadline,
/// and submitted == admitted + rejected.
enum class SessionState : std::uint8_t {
  kPending = 0,       ///< submitted, waiting for admission capacity
  kLive,              ///< admitted, streaming and simulating
  kBackoff,           ///< parked until a tick after a session fault
  kCompleted,         ///< full source simulated; result final
  kDrained,           ///< drain flushed its queue before source end; partial result
  kShedRetry,         ///< max_attempts session faults
  kShedDeadline,      ///< exceeded deadline_ticks
  kRejected,          ///< never admitted (drain arrived first)
};

const char* session_state_name(SessionState state);
bool session_state_terminal(SessionState state);

/// Every admission/backpressure/fault decision the loop makes, as monotonic
/// counters — the explicit-accounting contract (nothing is dropped
/// silently). All fields are checkpointed, so an interrupted-and-resumed
/// serve finishes with counters equal (operator==) to the uninterrupted
/// run's.
struct ServeCounters {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t admission_defers = 0;  ///< pending-session x tick deferrals
  std::uint64_t ingested_records = 0;  ///< source -> queue
  std::uint64_t fed_records = 0;       ///< queue -> simulator
  std::uint64_t ingest_defers = 0;     ///< queue-full x tick deferrals
  std::uint64_t shed_queued_records = 0;  ///< queued remainder of shed sessions
  std::uint64_t drills_injected = 0;   ///< drill faults fired
  std::uint64_t quantum_errors = 0;    ///< real exceptions escaping a quantum
  std::uint64_t backoff_events = 0;    ///< faults that parked a session
  std::uint64_t backoff_ticks_waited = 0;
  std::uint64_t deadline_violations = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_drained = 0;
  std::uint64_t sessions_shed_retry = 0;
  std::uint64_t sessions_shed_deadline = 0;
  std::uint64_t sessions_rejected = 0;
  /// Checkpoint accounting (degraded-mode serving): every server-envelope
  /// attempt lands in exactly one bucket — ckpt_attempted == ckpt_written +
  /// ckpt_degraded — and the serve audit enforces that identity at drain. A
  /// degraded attempt (rotation failure, ENOSPC, torn tmp, any storage
  /// fault) sheds the *checkpoint*, never the server: sessions keep
  /// simulating and a bounded seeded-backoff re-attempt follows.
  std::uint64_t ckpt_attempted = 0;
  std::uint64_t ckpt_written = 0;   ///< server envelopes landed (incl. final)
  std::uint64_t ckpt_degraded = 0;  ///< attempts lost to storage faults
  friend bool operator==(const ServeCounters&, const ServeCounters&) = default;
};

/// How a restarted server actually came back — the resume trail, surfaced
/// for audits. Deliberately *not* part of ServeCounters: an interrupted run
/// must reproduce the uninterrupted run's counters exactly, while this
/// struct records the interruption itself.
struct RecoveryStats {
  bool resumed = false;
  bool fell_back = false;  ///< envelope came from .prev, not current
  std::uint64_t resumed_tick = 0;
  std::uint64_t sessions_restored = 0;   ///< from their current snapshot
  std::uint64_t sessions_fell_back = 0;  ///< from their .prev snapshot
  std::uint64_t sessions_replayed = 0;   ///< cold replay of the fed prefix
  std::vector<std::string> notes;        ///< one line per rejected candidate
};

/// Final record of one session, in session-id order from outcomes().
/// `result` is meaningful for kCompleted and kDrained.
struct SessionOutcome {
  std::uint64_t id = 0;
  SessionSpec spec;
  SessionState state = SessionState::kPending;
  std::uint64_t admit_tick = 0;
  std::uint64_t end_tick = 0;
  int attempts = 0;             ///< session faults charged
  std::uint64_t records_fed = 0;
  sim::SimResult result;
  friend bool operator==(const SessionOutcome&, const SessionOutcome&) = default;
};

/// Rolling per-app / per-device percentile summaries over *completed*
/// sessions (drained partials would skew the percentiles). Insertion-order
/// independent (see analysis::StreamSummary), so the incremental fold of a
/// live server equals the id-order rebuild of a resumed one.
struct FleetSummary {
  analysis::GroupedSummary amat_by_app;
  analysis::GroupedSummary amat_by_device;
  analysis::GroupedSummary ipc_by_app;
  analysis::GroupedSummary hit_rate_by_device;
  friend bool operator==(const FleetSummary&, const FleetSummary&) = default;
};

// lint: suppress(snapshot-missing) the server checkpoints through its own envelope + per-session sim snapshots, not the Snapshottable interface
class SessionServer {
 public:
  explicit SessionServer(ServeConfig config, std::size_t threads = 1);

  /// Registers one tenant; returns its session id (dense, submit order).
  /// Only legal before the first tick — the fleet is part of the run's
  /// identity (the envelope fingerprint covers it).
  std::uint64_t add_session(const SessionSpec& spec);
  void add_fleet(const std::vector<SessionSpec>& specs);

  /// Advances the loop by one tick (first call resumes from a checkpoint if
  /// one is present). Returns false once every session is terminal and the
  /// final state is sealed.
  bool tick();

  /// Runs tick() to completion. Every submitted session ends terminal and
  /// queued_records() == 0 afterwards.
  void serve();

  /// Graceful drain: stop admitting (pending sessions reject on the next
  /// tick), stop source ingest, let queued records flush through.
  void request_drain();

  std::uint64_t current_tick() const { return tick_; }
  bool draining() const { return draining_; }
  bool finished() const { return finished_; }
  std::size_t live_sessions() const { return live_count_; }
  /// Records sitting in non-terminal session queues right now.
  std::uint64_t queued_records() const;

  const ServeCounters& counters() const { return counters_; }
  const RecoveryStats& recovery() const { return recovery_; }
  /// Per-session outcomes in id order; valid once finished().
  const std::vector<SessionOutcome>& outcomes() const;
  const FleetSummary& summary() const { return summary_; }

 private:
  struct Session {
    std::uint64_t id = 0;
    SessionSpec spec;
    SessionState state = SessionState::kPending;
    std::uint64_t admit_tick = 0;
    std::uint64_t end_tick = 0;
    int attempts = 0;
    std::uint64_t backoff_until = 0;
    std::uint64_t ingested = 0;  ///< source records pulled into the queue
    std::uint64_t fed = 0;       ///< records fed into the simulator
    std::uint64_t fingerprint = 0;  ///< trace identity for resume validation
    trace::TraceBatch batch;        ///< whole source, lazily materialized
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<fault::FaultInjector> drill;
    sim::SimResult result;
    bool has_result = false;
    // Quantum scratch: written only by this session's task inside the
    // parallel region, consumed by the serial post-pass.
    std::uint64_t tick_fed = 0;
    bool tick_fault = false;
    bool tick_error = false;
  };

  static constexpr std::uint64_t kDrillStreamBase = 0x5E55'0000ull;
  /// v2: ckpt_attempted/ckpt_written/ckpt_degraded joined the CTRS block.
  static constexpr std::uint32_t kEnvelopeVersion = 2;

  bool active(const Session& s) const {
    return s.state == SessionState::kLive || s.state == SessionState::kBackoff;
  }

  void start();
  void admit_pending();
  void admit(Session& s);
  void materialize(Session& s) const;  ///< trace + batch + fingerprint
  void build_sim(Session& s) const;    ///< fresh Simulator for this session
  void ingest_all();
  std::size_t collect_runnable();
  void run_quantum(std::size_t slot);  ///< hot root (tools/lint/layers.conf)
  void post_tick();
  void handle_fault(Session& s, bool rebuild);
  /// Ticks to wait before retry `attempt` (1-based), before jitter:
  /// min(backoff_base_ticks << (attempt-1), backoff_cap_ticks).
  std::uint64_t backoff_delay(int attempt) const;
  void complete(Session& s);
  void shed(Session& s, SessionState why);
  void release_heavy(Session& s);
  void fold_into_summary(const Session& s);
  /// Seals outcomes/finished_. `write_final` is false only when resuming
  /// into an already-terminal fleet, whose envelope (and checkpoint count)
  /// already includes the final write.
  void finalize(bool write_final);
  bool all_terminal() const;

  sim::CheckpointConfig session_ckpt(std::uint64_t id) const;
  std::string envelope_path() const;
  std::uint64_t fleet_fingerprint() const;
  void write_server_checkpoint();
  /// Books one failed checkpoint attempt and schedules the bounded
  /// seeded-backoff re-attempt (see ServeCounters ckpt_* identity).
  void degrade_checkpoint(const std::string& why);
  void encode_envelope(snapshot::Writer& w) const;
  void decode_envelope(snapshot::Reader& r);
  bool try_resume();
  void reset_runtime();
  void restore_session(Session& s);
  void remove_session_snapshots(std::uint64_t id) const;

  ServeConfig config_;
  fault::FaultPlan drill_plan_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< null when threads == 1
  std::vector<Session> sessions_;
  std::vector<std::uint32_t> run_;  ///< this tick's runnable slots (id order)
  std::uint64_t tick_ = 0;
  std::size_t live_count_ = 0;
  bool started_ = false;
  bool draining_ = false;
  bool finished_ = false;
  /// Degraded-checkpoint retry state: consecutive failed attempts, the tick
  /// of the next re-attempt (0 = none pending), and the seeded jitter stream
  /// that staggers re-attempts. Deliberately not checkpointed: a resumed
  /// server starts with a clean retry ledger, and the identity counters live
  /// in ServeCounters.
  int ckpt_failstreak_ = 0;
  std::uint64_t ckpt_retry_at_ = 0;
  io::Stream ckpt_jitter_{0};
  ServeCounters counters_;
  RecoveryStats recovery_;
  FleetSummary summary_;
  std::vector<SessionOutcome> outcomes_;
};

}  // namespace planaria::serve
