#include "serve/serve.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace planaria::serve {

namespace {

/// splitmix64 finalizer: decorrelates a tenant's user_seed before it
/// perturbs the app profile seed, so adjacent tenant seeds produce
/// unrelated traces.
std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t z = x + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr fault::FaultClass kDrillClass = fault::FaultClass::kTraceCorruption;

}  // namespace

void ServeConfig::validate() const {
  sim.validate();
  if (records_per_session == 0) {
    throw std::invalid_argument("serve: records_per_session == 0");
  }
  if (max_live_sessions == 0) {
    throw std::invalid_argument("serve: max_live_sessions == 0");
  }
  if (queue_capacity == 0 || ingest_per_tick == 0 || quantum_records == 0) {
    throw std::invalid_argument(
        "serve: queue_capacity/ingest_per_tick/quantum_records must be > 0");
  }
  if (max_attempts <= 0) {
    throw std::invalid_argument("serve: max_attempts must be > 0");
  }
  if (backoff_base_ticks == 0 || backoff_cap_ticks < backoff_base_ticks) {
    throw std::invalid_argument(
        "serve: backoff interval must satisfy 0 < base <= cap");
  }
  if (session_fault_rate < 0.0 || session_fault_rate > 1.0) {
    throw std::invalid_argument("serve: session_fault_rate outside [0, 1]");
  }
}

const char* session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kPending: return "pending";
    case SessionState::kLive: return "live";
    case SessionState::kBackoff: return "backoff";
    case SessionState::kCompleted: return "completed";
    case SessionState::kDrained: return "drained";
    case SessionState::kShedRetry: return "shed-retry";
    case SessionState::kShedDeadline: return "shed-deadline";
    case SessionState::kRejected: return "rejected";
  }
  return "?";
}

bool session_state_terminal(SessionState state) {
  switch (state) {
    case SessionState::kPending:
    case SessionState::kLive:
    case SessionState::kBackoff:
      return false;
    default:
      return true;
  }
}

SessionServer::SessionServer(ServeConfig config, std::size_t threads)
    : config_(std::move(config)) {
  config_.validate();
  if (threads == 0) throw std::invalid_argument("serve: threads == 0");
  if (threads > 1) pool_ = std::make_unique<common::ThreadPool>(threads);
  drill_plan_.seed = config_.drill_seed;
  drill_plan_.rate[static_cast<int>(kDrillClass)] = config_.session_fault_rate;
  ckpt_jitter_ = io::Stream(mix64(config_.drill_seed ^ 0xC4B7'C4B7ull));
}

std::uint64_t SessionServer::add_session(const SessionSpec& spec) {
  if (started_) {
    throw std::logic_error("serve: add_session after the first tick");
  }
  // Fail unknown specs loudly at submit time, not mid-serve.
  trace::app_by_name(spec.app);
  sim::prefetcher_kind_name(spec.kind);
  Session s;
  s.id = sessions_.size();
  s.spec = spec;
  sessions_.push_back(std::move(s));
  ++counters_.submitted;
  return sessions_.back().id;
}

void SessionServer::add_fleet(const std::vector<SessionSpec>& specs) {
  for (const auto& spec : specs) add_session(spec);
}

void SessionServer::request_drain() { draining_ = true; }

std::uint64_t SessionServer::queued_records() const {
  std::uint64_t queued = 0;
  for (const Session& s : sessions_) {
    if (active(s)) queued += s.ingested - s.fed;
  }
  return queued;
}

const std::vector<SessionOutcome>& SessionServer::outcomes() const {
  if (!finished_) {
    throw std::logic_error("serve: outcomes() before the serve finished");
  }
  return outcomes_;
}

void SessionServer::materialize(Session& s) const {
  trace::AppProfile profile = trace::app_by_name(s.spec.app);
  profile.seed ^= mix64(s.spec.user_seed);
  s.batch = trace::generate_app_trace(profile, config_.records_per_session);
  s.fingerprint = sim::trace_fingerprint(s.batch);
}

void SessionServer::build_sim(Session& s) const {
  sim::SimConfig cfg = config_.sim;
  if (cfg.fault.any_enabled()) {
    cfg.fault = cfg.fault.for_session(s.id);
  }
  s.sim = std::make_unique<sim::Simulator>(
      cfg, sim::make_prefetcher_factory(s.spec.kind),
      sim::prefetcher_kind_name(s.spec.kind));
}

void SessionServer::admit(Session& s) {
  materialize(s);
  build_sim(s);
  if (config_.session_fault_rate > 0.0) {
    s.drill = std::make_unique<fault::FaultInjector>(drill_plan_,
                                                     kDrillStreamBase + s.id);
  }
  s.state = SessionState::kLive;
  s.admit_tick = tick_;
  ++live_count_;
  ++counters_.admitted;
}

void SessionServer::admit_pending() {
  for (Session& s : sessions_) {
    if (s.state != SessionState::kPending) continue;
    if (draining_) {
      s.state = SessionState::kRejected;
      s.end_tick = tick_;
      ++counters_.sessions_rejected;
      continue;
    }
    if (live_count_ >= config_.max_live_sessions) {
      ++counters_.admission_defers;
      continue;
    }
    admit(s);
  }
}

void SessionServer::ingest_all() {
  if (draining_) return;
  for (Session& s : sessions_) {
    if (!active(s) || s.ingested == config_.records_per_session) continue;
    const std::uint64_t queued = s.ingested - s.fed;
    const std::uint64_t room = config_.queue_capacity - queued;
    const std::uint64_t want = std::min(
        config_.ingest_per_tick, config_.records_per_session - s.ingested);
    const std::uint64_t take = std::min(want, room);
    if (take < want) ++counters_.ingest_defers;
    s.ingested += take;
    counters_.ingested_records += take;
  }
}

std::size_t SessionServer::collect_runnable() {
  run_.clear();
  for (Session& s : sessions_) {
    if (s.state == SessionState::kBackoff && tick_ >= s.backoff_until) {
      s.state = SessionState::kLive;
    }
    if (s.state == SessionState::kLive && s.ingested > s.fed) {
      run_.push_back(static_cast<std::uint32_t>(s.id));
    }
  }
  return run_.size();
}

void SessionServer::run_quantum(std::size_t slot) {
  Session& s = sessions_[run_[slot]];
  s.tick_fed = 0;
  s.tick_fault = false;
  s.tick_error = false;
  // Drill decision first, before any simulator mutation: a fired drill only
  // delays scheduling, so a surviving session's fed sequence — and hence its
  // SimResult — is byte-identical with drills armed or not.
  if (s.drill != nullptr && s.drill->roll(kDrillClass)) {
    s.drill->record(kDrillClass);
    s.tick_fault = true;
    return;
  }
  const std::uint64_t queued = s.ingested - s.fed;
  const std::uint64_t feed = std::min(config_.quantum_records, queued);
  try {
    s.sim->run_sharded(s.batch, s.fed, s.fed + feed, nullptr);
    s.fed += feed;
    s.tick_fed = feed;
  } catch (...) {
    s.tick_error = true;
  }
}

void SessionServer::handle_fault(Session& s, bool rebuild) {
  ++s.attempts;
  if (s.attempts >= config_.max_attempts) {
    shed(s, SessionState::kShedRetry);
    return;
  }
  if (rebuild) {
    // A real exception may have left the simulator mid-quantum; s.fed only
    // advances on success, so a fresh simulator replayed over the fed prefix
    // lands exactly where the session was (bit-identically — the same
    // guarantee the checkpoint cold-start path relies on).
    build_sim(s);
    if (s.fed > 0) s.sim->run_sharded(s.batch, 0, s.fed, pool_.get());
  }
  std::uint64_t delay = backoff_delay(s.attempts);
  if (s.drill != nullptr && config_.backoff_base_ticks > 1) {
    // Deterministic jitter off the drill's target-selection stream —
    // seeded, checkpointed with the injector, never wall clock.
    delay += s.drill->rng(kDrillClass).next_below(config_.backoff_base_ticks);
  }
  s.state = SessionState::kBackoff;
  s.backoff_until = tick_ + delay;
  ++counters_.backoff_events;
  counters_.backoff_ticks_waited += delay;
}

std::uint64_t SessionServer::backoff_delay(int attempt) const {
  const std::uint64_t shift =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(attempt) - 1, 62);
  return std::min(config_.backoff_base_ticks << shift,
                  config_.backoff_cap_ticks);
}

void SessionServer::fold_into_summary(const Session& s) {
  summary_.amat_by_app.add(s.spec.app, s.result.amat_cycles);
  summary_.amat_by_device.add(s.spec.device, s.result.amat_cycles);
  summary_.ipc_by_app.add(s.spec.app, s.result.ipc);
  summary_.hit_rate_by_device.add(s.spec.device, s.result.sc_hit_rate);
}

void SessionServer::release_heavy(Session& s) {
  s.batch = trace::TraceBatch();
  s.sim.reset();
  s.drill.reset();
}

void SessionServer::complete(Session& s) {
  s.result = s.sim->finish();
  s.has_result = true;
  const bool full = s.fed == config_.records_per_session;
  s.state = full ? SessionState::kCompleted : SessionState::kDrained;
  s.end_tick = tick_;
  if (full) {
    ++counters_.sessions_completed;
    fold_into_summary(s);
  } else {
    ++counters_.sessions_drained;
  }
  release_heavy(s);
  --live_count_;
  if (config_.checkpointing()) remove_session_snapshots(s.id);
}

void SessionServer::shed(Session& s, SessionState why) {
  counters_.shed_queued_records += s.ingested - s.fed;
  if (why == SessionState::kShedRetry) {
    ++counters_.sessions_shed_retry;
  } else {
    ++counters_.sessions_shed_deadline;
    ++counters_.deadline_violations;
  }
  s.state = why;
  s.end_tick = tick_;
  release_heavy(s);
  --live_count_;
  if (config_.checkpointing()) remove_session_snapshots(s.id);
}

void SessionServer::post_tick() {
  // Fault/feed accounting for the sessions that actually ran, in id order
  // (run_ is built in id order).
  for (const std::uint32_t idx : run_) {
    Session& s = sessions_[idx];
    counters_.fed_records += s.tick_fed;
    if (s.tick_fault) {
      ++counters_.drills_injected;
      handle_fault(s, /*rebuild=*/false);
    } else if (s.tick_error) {
      ++counters_.quantum_errors;
      handle_fault(s, /*rebuild=*/true);
    }
  }
  // Completions, drain flush-out, deadlines — serial, id order.
  for (Session& s : sessions_) {
    if (s.state == SessionState::kLive) {
      const bool source_done = s.fed == config_.records_per_session;
      const bool queue_empty = s.fed == s.ingested;
      if (source_done || (draining_ && queue_empty)) {
        complete(s);
        continue;
      }
    }
    if (active(s) && config_.deadline_ticks > 0 &&
        tick_ - s.admit_tick >= config_.deadline_ticks) {
      shed(s, SessionState::kShedDeadline);
    }
  }
}

bool SessionServer::all_terminal() const {
  for (const Session& s : sessions_) {
    if (!session_state_terminal(s.state)) return false;
  }
  return true;
}

void SessionServer::start() {
  started_ = true;
  if (!config_.checkpointing()) return;
  std::filesystem::create_directories(config_.checkpoint_dir);
  try_resume();
}

bool SessionServer::tick() {
  if (!started_) start();
  if (finished_) return false;
  ++tick_;
  admit_pending();
  ingest_all();
  const std::size_t n = collect_runnable();
  common::for_each_ready(pool_.get(), n,
                         [this](std::size_t i) { run_quantum(i); });
  post_tick();
  if (all_terminal()) {
    finalize(/*write_final=*/true);
    return false;
  }
  // Natural cadence, plus the bounded-backoff re-attempt schedule a degraded
  // checkpoint may have posted (ckpt_retry_at_ == 0 means none pending).
  if (config_.checkpointing() &&
      (tick_ % config_.checkpoint_every_ticks == 0 ||
       (ckpt_retry_at_ != 0 && tick_ >= ckpt_retry_at_))) {
    write_server_checkpoint();
  }
  return true;
}

void SessionServer::serve() {
  while (tick()) {
  }
}

void SessionServer::finalize(bool write_final) {
  if (write_final && config_.checkpointing()) write_server_checkpoint();
  outcomes_.clear();
  outcomes_.reserve(sessions_.size());
  for (const Session& s : sessions_) {
    SessionOutcome o;
    o.id = s.id;
    o.spec = s.spec;
    o.state = s.state;
    o.admit_tick = s.admit_tick;
    o.end_tick = s.end_tick;
    o.attempts = s.attempts;
    o.records_fed = s.fed;
    if (s.has_result) o.result = s.result;
    outcomes_.push_back(std::move(o));
  }
  finished_ = true;
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

sim::CheckpointConfig SessionServer::session_ckpt(std::uint64_t id) const {
  sim::CheckpointConfig ckpt;
  ckpt.dir = config_.checkpoint_dir;
  ckpt.every = 1;  // cadence is the server's; write_checkpoint only needs dir
  ckpt.label = "session_" + std::to_string(id);
  return ckpt;
}

std::string SessionServer::envelope_path() const {
  return config_.checkpoint_dir + "/server.snap";
}

std::uint64_t SessionServer::fleet_fingerprint() const {
  snapshot::Writer w;
  w.u64(config_.records_per_session);
  w.u64(config_.max_live_sessions);
  w.u64(config_.queue_capacity);
  w.u64(config_.ingest_per_tick);
  w.u64(config_.quantum_records);
  w.u64(config_.deadline_ticks);
  w.i64(config_.max_attempts);
  w.u64(config_.backoff_base_ticks);
  w.u64(config_.backoff_cap_ticks);
  w.f64(config_.session_fault_rate);
  w.u64(config_.drill_seed);
  w.u64(config_.sim.fault.seed);
  for (double r : config_.sim.fault.rate) w.f64(r);
  w.u64(sessions_.size());
  for (const Session& s : sessions_) {
    w.str(s.spec.app);
    w.str(sim::prefetcher_kind_name(s.spec.kind));
    w.u64(s.spec.user_seed);
    w.str(s.spec.device);
  }
  const auto& buf = w.buffer();
  const std::uint64_t crc = snapshot::crc32(buf.data(), buf.size());
  return (crc << 32) ^ buf.size();
}

void SessionServer::encode_envelope(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("SRVE"));
  w.u32(kEnvelopeVersion);
  w.u64(fleet_fingerprint());
  w.u64(tick_);
  w.b(draining_);
  w.tag(snapshot::tag4("CTRS"));
  w.u64(counters_.submitted);
  w.u64(counters_.admitted);
  w.u64(counters_.admission_defers);
  w.u64(counters_.ingested_records);
  w.u64(counters_.fed_records);
  w.u64(counters_.ingest_defers);
  w.u64(counters_.shed_queued_records);
  w.u64(counters_.drills_injected);
  w.u64(counters_.quantum_errors);
  w.u64(counters_.backoff_events);
  w.u64(counters_.backoff_ticks_waited);
  w.u64(counters_.deadline_violations);
  w.u64(counters_.sessions_completed);
  w.u64(counters_.sessions_drained);
  w.u64(counters_.sessions_shed_retry);
  w.u64(counters_.sessions_shed_deadline);
  w.u64(counters_.sessions_rejected);
  w.u64(counters_.ckpt_attempted);
  w.u64(counters_.ckpt_written);
  w.u64(counters_.ckpt_degraded);
  w.u64(sessions_.size());
  for (const Session& s : sessions_) {
    // Length-framed per session: a reader that rejects one session record
    // fails at its boundary instead of misreading every record after it.
    const std::size_t section = w.begin_section(snapshot::tag4("SESS"));
    w.u64(s.id);
    w.u8(static_cast<std::uint8_t>(s.state));
    w.u64(s.admit_tick);
    w.u64(s.end_tick);
    w.i64(s.attempts);
    w.u64(s.backoff_until);
    w.u64(s.ingested);
    w.u64(s.fed);
    w.u64(s.fingerprint);
    w.b(s.drill != nullptr);
    if (s.drill != nullptr) s.drill->save_state(w);
    w.b(s.has_result);
    if (s.has_result) s.result.save_state(w);
    w.end_section(section);
  }
}

void SessionServer::degrade_checkpoint(const std::string& why) {
  // The attempt was already booked optimistically as written (so a landed
  // envelope includes its own write); move it to the degraded bucket. The
  // identity ckpt_attempted == ckpt_written + ckpt_degraded holds at every
  // instant the counters are observable.
  --counters_.ckpt_written;
  ++counters_.ckpt_degraded;
  recovery_.notes.push_back("checkpoint at tick " + std::to_string(tick_) +
                            " degraded: " + why);
  // Bounded seeded-backoff re-attempt: same base/cap knobs as session
  // retries, deterministic jitter off a dedicated stream. After
  // max_attempts consecutive losses, stop re-attempting and wait for the
  // next natural cadence tick — a full disk should not be hammered every
  // tick.
  if (ckpt_failstreak_ < config_.max_attempts) {
    ++ckpt_failstreak_;
    std::uint64_t delay = backoff_delay(ckpt_failstreak_);
    if (config_.backoff_base_ticks > 1) {
      delay += ckpt_jitter_.next_below(config_.backoff_base_ticks);
    }
    ckpt_retry_at_ = tick_ + delay;
  } else {
    ckpt_retry_at_ = 0;
  }
}

void SessionServer::write_server_checkpoint() {
  // Per-session simulator snapshots first (each rotates its own current ->
  // .prev), then the envelope under the same rotation. A kill anywhere in
  // between leaves a decodable (envelope, session-snapshot) pair one
  // generation back.
  //
  // Storage failures anywhere in the chain — a session snapshot's rotation,
  // the envelope rename, ENOSPC inside write_file — shed the *checkpoint*,
  // never the server: every session's in-memory state is untouched, so the
  // fleet keeps simulating and only resumability is degraded (counted in
  // ckpt_degraded, re-attempted under bounded backoff).
  ++counters_.ckpt_attempted;
  ++counters_.ckpt_written;
  try {
    for (const Session& s : sessions_) {
      if (active(s)) {
        sim::write_checkpoint(*s.sim, session_ckpt(s.id), s.fed,
                              s.fingerprint);
      }
    }
    snapshot::Writer w;
    encode_envelope(w);
    const std::string path = envelope_path();
    if (io::exists(path)) io::rename_file(path, path + ".prev");
    snapshot::write_file(path, w.buffer());
    ckpt_failstreak_ = 0;
    ckpt_retry_at_ = 0;
  } catch (const snapshot::SnapshotError& e) {
    degrade_checkpoint(e.what());
  } catch (const io::IoError& e) {
    degrade_checkpoint(e.what());
  }
}

void SessionServer::remove_session_snapshots(std::uint64_t id) const {
  const sim::CheckpointConfig ckpt = session_ckpt(id);
  std::error_code ec;
  std::filesystem::remove(ckpt.current_path(), ec);
  std::filesystem::remove(ckpt.prev_path(), ec);
}

void SessionServer::reset_runtime() {
  tick_ = 0;
  live_count_ = 0;
  draining_ = false;
  counters_ = ServeCounters{};
  counters_.submitted = sessions_.size();
  summary_ = FleetSummary{};
  // The degraded-checkpoint retry ledger is runtime-only state: a resumed
  // server starts with a clean failstreak and no pending re-attempt.
  ckpt_failstreak_ = 0;
  ckpt_retry_at_ = 0;
  ckpt_jitter_ = io::Stream(mix64(config_.drill_seed ^ 0xC4B7'C4B7ull));
  for (Session& s : sessions_) {
    const SessionSpec spec = s.spec;
    const std::uint64_t id = s.id;
    s = Session{};
    s.id = id;
    s.spec = spec;
  }
}

void SessionServer::restore_session(Session& s) {
  materialize(s);
  // The envelope's fingerprint pins the trace this session was serving; a
  // regeneration mismatch means the generator or spec drifted under us.
  if (s.fingerprint != sim::trace_fingerprint(s.batch)) {
    throw snapshot::SnapshotError("session " + std::to_string(s.id) +
                                  ": trace fingerprint mismatch at resume");
  }
  const sim::CheckpointConfig ckpt = session_ckpt(s.id);
  for (const std::string& path : {ckpt.current_path(), ckpt.prev_path()}) {
    try {
      build_sim(s);
      const std::uint64_t cursor =
          sim::load_checkpoint(*s.sim, path, s.fingerprint);
      if (cursor == s.fed) {
        if (path == ckpt.current_path()) {
          ++recovery_.sessions_restored;
        } else {
          ++recovery_.sessions_fell_back;
        }
        return;
      }
      recovery_.notes.push_back("session " + std::to_string(s.id) + ": " +
                                path + " cursor " + std::to_string(cursor) +
                                " != envelope " + std::to_string(s.fed));
    } catch (const snapshot::SnapshotError& e) {
      recovery_.notes.push_back("session " + std::to_string(s.id) + ": " +
                                e.what());
    }
  }
  // No usable snapshot: cold-replay the fed prefix. Chunked/sharded
  // execution is bit-identical to the uninterrupted feed, so the session
  // lands exactly where the envelope says it was.
  build_sim(s);
  if (s.fed > 0) s.sim->run_sharded(s.batch, 0, s.fed, pool_.get());
  ++recovery_.sessions_replayed;
}

void SessionServer::decode_envelope(snapshot::Reader& r) {
  r.expect_tag(snapshot::tag4("SRVE"));
  if (r.u32() != kEnvelopeVersion) {
    throw snapshot::SnapshotError("server envelope version mismatch");
  }
  if (r.u64() != fleet_fingerprint()) {
    throw snapshot::SnapshotError(
        "server envelope was written by a different fleet/config");
  }
  tick_ = r.u64();
  draining_ = r.b();
  r.expect_tag(snapshot::tag4("CTRS"));
  counters_.submitted = r.u64();
  counters_.admitted = r.u64();
  counters_.admission_defers = r.u64();
  counters_.ingested_records = r.u64();
  counters_.fed_records = r.u64();
  counters_.ingest_defers = r.u64();
  counters_.shed_queued_records = r.u64();
  counters_.drills_injected = r.u64();
  counters_.quantum_errors = r.u64();
  counters_.backoff_events = r.u64();
  counters_.backoff_ticks_waited = r.u64();
  counters_.deadline_violations = r.u64();
  counters_.sessions_completed = r.u64();
  counters_.sessions_drained = r.u64();
  counters_.sessions_shed_retry = r.u64();
  counters_.sessions_shed_deadline = r.u64();
  counters_.sessions_rejected = r.u64();
  counters_.ckpt_attempted = r.u64();
  counters_.ckpt_written = r.u64();
  counters_.ckpt_degraded = r.u64();
  if (r.u64() != sessions_.size()) {
    throw snapshot::SnapshotError("envelope session count mismatch");
  }
  for (Session& s : sessions_) {
    const std::uint64_t len = r.enter_section(snapshot::tag4("SESS"));
    const std::size_t begin = r.position();
    if (r.u64() != s.id) {
      throw snapshot::SnapshotError("envelope session id out of order");
    }
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(SessionState::kRejected)) {
      throw snapshot::SnapshotError("envelope holds unknown session state");
    }
    s.state = static_cast<SessionState>(state);
    s.admit_tick = r.u64();
    s.end_tick = r.u64();
    const std::int64_t attempts = r.i64();
    if (attempts < 0 || attempts > config_.max_attempts) {
      throw snapshot::SnapshotError("envelope attempts out of range");
    }
    s.attempts = static_cast<int>(attempts);
    s.backoff_until = r.u64();
    s.ingested = r.u64();
    s.fed = r.u64();
    if (s.fed > s.ingested || s.ingested > config_.records_per_session) {
      throw snapshot::SnapshotError("envelope cursors are impossible");
    }
    s.fingerprint = r.u64();
    if (r.b()) {
      s.drill = std::make_unique<fault::FaultInjector>(
          drill_plan_, kDrillStreamBase + s.id);
      s.drill->load_state(r);
    }
    s.has_result = r.b();
    if (s.has_result) s.result.load_state(r);
    if (r.position() - begin != len) {
      throw snapshot::SnapshotError("session section length mismatch");
    }
  }
  r.require_end();
}

bool SessionServer::try_resume() {
  const std::string current = envelope_path();
  for (const std::string& path : {current, current + ".prev"}) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    try {
      const auto payload = snapshot::read_file(path);
      snapshot::Reader r(payload);
      decode_envelope(r);
      // Envelope accepted: rebuild the heavy state of every non-terminal
      // admitted session and the summary fold of every completed one.
      for (Session& s : sessions_) {
        if (active(s)) {
          restore_session(s);
          ++live_count_;
        } else if (s.state == SessionState::kCompleted) {
          fold_into_summary(s);
        }
      }
      recovery_.resumed = true;
      recovery_.fell_back = path != current;
      recovery_.resumed_tick = tick_;
      if (all_terminal()) finalize(/*write_final=*/false);
      return true;
    } catch (const snapshot::SnapshotError& e) {
      recovery_.notes.push_back(path + ": " + e.what());
      reset_runtime();
    }
  }
  return false;
}

}  // namespace planaria::serve
