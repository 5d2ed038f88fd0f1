// Crash-safe checkpoint/resume driver for the simulator (DESIGN.md §11).
//
// The snapshot library (src/snapshot/) provides the byte format and the
// atomic file envelope; this layer decides *when* to checkpoint and *what* to
// trust at restart. Both run_checkpointed overloads (a whole batch, or an
// app's trace streamed; ExperimentRunner's cells use the latter) share one
// loop, and a checkpointed run:
//
//   * feeds the trace through Simulator::run_sharded in [begin, end) spans
//     that end at every multiple of `every` (chunked execution is
//     bit-identical to a single call — see the contract on that function);
//   * after each full chunk rotates <label>.snap to <label>.snap.prev and
//     atomically writes a fresh <label>.snap, so at every instant the
//     directory holds at least one complete snapshot (last-good retention);
//   * at startup tries <label>.snap, then <label>.snap.prev, then a cold
//     start. A snapshot that is truncated, CRC-corrupt, version-mismatched,
//     or taken against a different trace/prefetcher is *rejected* — the run
//     degrades to the next candidate with a note in the RecoveryReport, never
//     crashes and never silently produces wrong results.
//
// The bit-identity guarantee: a run killed at any record index and resumed
// from its last-good snapshot produces a SimResult that compares equal
// (SimResult::operator==, doubles included) to the uninterrupted run, at any
// thread count, with or without an armed FaultPlan. planaria-audit --stage
// crash enforces exactly this.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/apps.hpp"

namespace planaria::sim {

/// Where and how often to checkpoint. Default-constructed = disabled.
struct CheckpointConfig {
  std::string dir;           ///< snapshot directory; empty disables
  std::uint64_t every = 0;   ///< checkpoint after each N records; 0 disables
  std::string label = "run"; ///< file basename, one per logical run

  bool enabled() const { return !dir.empty() && every > 0; }
  std::string current_path() const { return dir + "/" + label + ".snap"; }
  std::string prev_path() const { return current_path() + ".prev"; }

  /// Reads PLANARIA_CHECKPOINT_DIR and PLANARIA_CHECKPOINT_EVERY; either
  /// unset leaves checkpointing disabled. ExperimentRunner is the one
  /// reader; Simulator::run never checkpoints. Throws std::invalid_argument
  /// on an interval that is not a decimal integer (common::parse_env_uint).
  static CheckpointConfig from_env();
};

/// How a checkpointed run actually started — surfaced to callers and audits
/// so degraded recovery is observable, not silent.
struct RecoveryReport {
  enum class Outcome {
    kColdStart,  ///< no usable snapshot; ran from record zero
    kResumed,    ///< restored from the current snapshot
    kFellBack,   ///< current snapshot rejected; restored from .prev
  };
  Outcome outcome = Outcome::kColdStart;
  std::string snapshot_path;        ///< snapshot restored from (if any)
  std::uint64_t resumed_cursor = 0; ///< records already applied at restore
  /// Mid-run checkpoint writes (rotation included) that failed; the run
  /// continued degraded — a failed checkpoint costs resumability, never the
  /// result. Each failure also leaves a line in `notes`.
  std::uint64_t checkpoint_failures = 0;
  std::vector<std::string> notes;   ///< one line per rejected candidate
};

const char* recovery_outcome_name(RecoveryReport::Outcome outcome);

/// Result of a scrub pass over snapshot current/.prev pairs. Exact-count
/// contract: scanned == intact + quarantined, and every quarantined or
/// missing slot whose partner survived is rewritten (repaired) from that
/// surviving copy — corrupt envelopes are *moved aside* to
/// "<path>.quarantine" for post-mortem, never deleted.
struct ScrubReport {
  std::uint64_t scanned = 0;      ///< envelope files examined
  std::uint64_t intact = 0;       ///< envelopes that decoded clean
  std::uint64_t quarantined = 0;  ///< corrupt envelopes moved to .quarantine
  std::uint64_t repaired = 0;     ///< slots rewritten from the good partner
  std::uint64_t missing = 0;      ///< pair slots with no file at all
  std::vector<std::string> notes; ///< one line per quarantine/repair action
};

/// Scrubs one current/.prev pair: CRC-verifies both envelopes, quarantines
/// any corrupt one to "<path>.quarantine", then repairs a quarantined slot
/// from the surviving good copy so the pair is whole again. A slot that was
/// missing from the start is counted missing but not fabricated (a run that
/// has only ever written `current` legitimately has no .prev). Tallies into
/// `report` so callers can sweep many pairs into one report.
void scrub_snapshot_pair(const std::string& current, const std::string& prev,
                         ScrubReport& report);

/// Convenience: scrubs the pair named by `ckpt` (current_path/prev_path).
ScrubReport scrub_checkpoints(const CheckpointConfig& ckpt);

/// Identity of a trace for resume validation: CRC32 over a deterministic
/// sample of records (every (n/4096)-th, so the cost is flat) combined with
/// the record count. A snapshot taken against a different trace fails this
/// check at load time instead of producing subtly wrong results.
std::uint64_t trace_fingerprint(const trace::TraceBatch& batch);

/// trace_fingerprint(trace::generate_app_trace(app, records)), computed in
/// one pass over trace::AppTraceStream without holding the trace. Same
/// throws as the stream's constructor.
std::uint64_t trace_fingerprint(const trace::AppProfile& app,
                                std::uint64_t records);

/// Serializes `sim` plus the resume envelope (cursor, trace fingerprint) and
/// installs it as the current snapshot: the previous current is rotated to
/// .prev first, then the new bytes land via write-temp-and-rename. A crash
/// anywhere in between leaves at least one complete snapshot behind.
void write_checkpoint(const Simulator& sim, const CheckpointConfig& ckpt,
                      std::uint64_t cursor, std::uint64_t fingerprint);

/// Restores `sim` (freshly constructed from the same config/factory/name)
/// from the snapshot at `path` and returns the record cursor to resume at.
/// Throws snapshot::SnapshotError on any validation failure — envelope, tag
/// structure, key (`expected_fingerprint`) or prefetcher mismatch; `sim` is
/// then partially updated and must be discarded.
std::uint64_t load_checkpoint(Simulator& sim, const std::string& path,
                              std::uint64_t expected_fingerprint);

/// Crash-safe run of a whole trace. Resumes from the newest intact snapshot
/// when `ckpt` is enabled (current, then .prev, else cold start — see
/// RecoveryReport), then feeds the remaining records in chunks that end at
/// every multiple of `ckpt.every`, checkpointing after each but the last. A
/// failed checkpoint write is counted and noted in the report, never fatal.
/// Disabled `ckpt` degenerates to one run_sharded call and no files.
/// Snapshots are keyed by trace_fingerprint(batch). `report`, when
/// non-null, receives the recovery trail.
SimResult run_checkpointed(const SimConfig& config, PrefetcherFactory factory,
                           std::string prefetcher_name,
                           const trace::TraceBatch& batch,
                           const CheckpointConfig& ckpt,
                           common::ThreadPool* pool = nullptr,
                           RecoveryReport* report = nullptr);

/// The same run over trace::AppTraceStream(app, records), fed in chunks of
/// at most 2^16 rows so no trace is held; rows before a resumed cursor are
/// generated and skipped. Snapshots are keyed by the caller's `key` (e.g. a
/// trace fingerprint mixed with a configuration digest). Same throws as the
/// stream's constructor.
SimResult run_checkpointed(const SimConfig& config, PrefetcherFactory factory,
                           std::string prefetcher_name,
                           const trace::AppProfile& app, std::uint64_t records,
                           std::uint64_t key, const CheckpointConfig& ckpt,
                           common::ThreadPool* pool = nullptr,
                           RecoveryReport* report = nullptr);

}  // namespace planaria::sim
