// Experiment runner: the sweep machinery behind every figure bench.
//
// Executes (app x prefetcher) grids, returning SimResults keyed for the
// figure printers. Record counts default to a laptop-friendly length and can
// be scaled with the PLANARIA_RECORDS environment variable to approach the
// paper's 67-71M-record traces.
//
// There is one simulate path, per (app x kind) cell: a trace::AppTraceStream
// feeds the cell's Simulator one 2^16-row chunk at a time, so memory is
// bounded by the chunk and the simulator, never by the record count, and no
// trace is kept. Exact, because consecutive Simulator::run_sharded calls are
// bit-identical to one call over their union. Each cell generates its own
// stream: one simulator per pool lane is live at a time, where sharing one
// stream among an app's kinds would keep all of their simulators live.
//
// The grid is embarrassingly parallel (no state crosses cells, and inside a
// cell no state crosses channels), so the runner owns an optional
// common::ThreadPool sized by PLANARIA_THREADS: sweep() and run() fan the
// cells out over the pool, and each cell additionally shards its simulation
// by channel on the same pool. Results are bit-identical to the serial path
// at every thread count (tests/test_parallel.cpp holds this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "trace/apps.hpp"

namespace planaria::sim {

/// Reads PLANARIA_RECORDS (decimal, e.g. "2000000") or returns `fallback`.
/// Throws std::invalid_argument unless it is an integer >= 1.
std::uint64_t records_from_env(std::uint64_t fallback);

/// One sweep cell that threw on every one of its bounded attempts. The sweep
/// result map still contains the cell's key with a default-constructed
/// SimResult, so figure printers keep their shape; consumers that care check
/// the report.
struct FailureReport {
  std::string app;
  std::string kind;
  int attempts = 0;   ///< how many times the cell was tried (1 + retries)
  std::string what;   ///< message of the last attempt's exception
};

// lint: suppress(snapshot-missing) sweep progress persists per-cell as .result files, not via the codec
class ExperimentRunner {
 public:
  explicit ExperimentRunner(
      SimConfig config = {},
      std::uint64_t records = records_from_env(400000),
      std::size_t threads = common::ThreadPool::threads_from_env(1));

  /// The cells (app x kinds), one SimResult per kind in `kinds` order,
  /// fanned over the pool like sweep()'s, cell files and mid-cell snapshots
  /// included. The first cell exception propagates; an unknown app throws
  /// std::out_of_range.
  std::vector<SimResult> run(const std::string& app,
                             const std::vector<PrefetcherKind>& kinds);
  /// One cell of the grid.
  SimResult run(const std::string& app, PrefetcherKind kind) {
    return run(app, std::vector<PrefetcherKind>{kind}).front();
  }

  /// Runs `kinds` on every paper app, fanning the (app x kind) cells over the
  /// thread pool when `threads > 1`. Results keyed [app][kind-name] and
  /// bit-identical to the serial sweep at any thread count.
  ///
  /// Failure isolation is opt-in: with `failures` null (the default), the
  /// first cell exception propagates. With a sink supplied, each cell runs
  /// isolated: the cells that threw are re-run, from fresh streams, over the
  /// pool, for up to 3 attempts in all; if every attempt throws, the cell's
  /// slot stays default-constructed and one FailureReport is appended (cell
  /// order) while every other cell runs to completion. A 44-cell overnight
  /// sweep no longer forfeits 43 results to one poisoned cell.
  std::map<std::string, std::map<std::string, SimResult>> sweep(
      const std::vector<PrefetcherKind>& kinds, bool verbose = false,
      std::vector<FailureReport>* failures = nullptr);

  const SimConfig& config() const { return config_; }
  std::uint64_t records() const { return records_; }
  std::size_t threads() const { return pool_ ? pool_->size() : 1; }

  /// Planaria table configuration used for the planaria/* kinds; mutable so
  /// ablation benches can sweep its parameters.
  core::PlanariaConfig& planaria_config() { return planaria_; }
  prefetch::BopConfig& bop_config() { return bop_; }
  prefetch::SppConfig& spp_config() { return spp_; }

  /// Sweep-level checkpointing (DESIGN.md §11). With a directory set — by
  /// default from PLANARIA_CHECKPOINT_DIR — every completed (app x kind) cell
  /// persists its SimResult atomically; a restarted sweep reloads those cells
  /// verbatim instead of re-simulating them, and a corrupt or mismatched cell
  /// file is simply rerun. Cells additionally checkpoint mid-run (each under
  /// its own label, so concurrent cells never collide) when
  /// PLANARIA_CHECKPOINT_EVERY is also set. Empty disables everything. A
  /// cell file is reloaded only if it was written for the same record count,
  /// configuration (SimConfig and the prefetcher configs) and trace; the
  /// trace's fingerprint costs one extra generation pass per app.
  void set_checkpoint_dir(std::string dir) { checkpoint_dir_ = std::move(dir); }
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }

  /// The key `app`'s mid-cell snapshots are written and resumed under: the
  /// trace fingerprint mixed with the configuration digest, so a snapshot a
  /// killed run left under another configuration is never resumed (the
  /// cell falls back to .prev, then to a cold start). Needs a checkpoint
  /// dir. It rides in the CKPT envelope's fingerprint field.
  std::uint64_t snapshot_key(const std::string& app) const {
    return cell_key(app).snapshot_key();
  }

 private:
  /// What a persisted cell result is valid for, besides the record count,
  /// app and kind its header already names: every configuration knob and
  /// the cell's trace. A stored cell whose key differs is rerun.
  struct CellKey {
    std::uint64_t config_digest = 0;
    std::uint64_t trace_fingerprint = 0;

    std::uint64_t snapshot_key() const;
  };

  /// FNV-1a digest of config_ and the planaria/BOP/SPP configurations.
  std::uint64_t config_digest() const;
  /// The persisted cells' key for `app`, from one streaming pass over its
  /// trace; all-zero when no checkpoint dir is set.
  CellKey cell_key(const std::string& app) const;

  /// The one simulate path: one cell from its own trace stream. With a
  /// checkpoint dir it reloads a matching cell file, or else resumes from
  /// its newest intact mid-cell snapshot (current, then .prev) or starts
  /// cold, and persists its result. `key` is cell_key(app).
  SimResult run_cell(const std::string& app, PrefetcherKind kind,
                     const PrefetcherFactory& factory, const CellKey& key,
                     bool verbose);

  std::string cell_path(const std::string& app, const char* kind) const;
  bool try_load_cell(const std::string& app, const char* kind,
                     const CellKey& key, SimResult& out) const;
  void store_cell(const std::string& app, const char* kind, const CellKey& key,
                  const SimResult& result) const;

  SimConfig config_;
  std::uint64_t records_;
  core::PlanariaConfig planaria_;
  prefetch::BopConfig bop_;
  prefetch::SppConfig spp_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< null when threads == 1
  std::string checkpoint_dir_;        ///< empty = no sweep checkpointing
  std::uint64_t checkpoint_every_ = 0;  ///< mid-cell interval; 0 = cell-only
};

/// Geometric-mean helper for "average over apps" rows (the paper's averages
/// of ratios are reported as arithmetic means of per-app percentages; both
/// are provided).
double mean(const std::vector<double>& xs);
double geomean_ratio(const std::vector<double>& ratios);

}  // namespace planaria::sim
