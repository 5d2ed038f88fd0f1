// Experiment runner: the sweep machinery behind every figure bench.
//
// Caches generated app traces (generation is a nontrivial fraction of a run)
// and executes (app x prefetcher) grids, returning SimResults keyed for the
// figure printers. Record counts default to a laptop-friendly length and can
// be scaled with the PLANARIA_RECORDS environment variable to approach the
// paper's 67-71M-record traces.
//
// The grid is embarrassingly parallel (no state crosses cells, and inside a
// cell no state crosses channels), so the runner owns an optional
// common::ThreadPool sized by PLANARIA_THREADS: sweep() fans the cells out
// over the pool, each cell additionally shards its simulation by channel on
// the same pool, and the trace cache hands concurrent cells one shared
// generation per app through std::call_once. Results are bit-identical to the
// serial path at every thread count (tests/test_parallel.cpp holds this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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

/// One sweep cell that failed after its bounded retry. The sweep result map
/// still contains the cell's key with a default-constructed SimResult, so
/// figure printers keep their shape; consumers that care check the report.
struct FailureReport {
  std::string app;
  std::string kind;
  int attempts = 0;   ///< how many times the cell was tried (1 + retries)
  int backoffs = 0;   ///< retries that were scheduled (attempts - 1)
  /// Total scheduler rounds the cell spent parked between attempts —
  /// deterministic sim-tick delays (seeded exponential backoff with jitter),
  /// never wall clock.
  std::uint64_t backoff_rounds = 0;
  std::string what;   ///< message of the last attempt's exception
};

// lint: suppress(snapshot-missing) sweep progress persists per-cell as .result files, not via the codec
class ExperimentRunner {
 public:
  explicit ExperimentRunner(
      SimConfig config = {},
      std::uint64_t records = records_from_env(400000),
      std::size_t threads = common::ThreadPool::threads_from_env(1));

  /// Generated (and cached) bus trace for one paper app. Thread-safe:
  /// concurrent sweep cells block on one std::call_once generation instead
  /// of racing to generate their own copies.
  const trace::TraceBatch& trace_for(const std::string& app);

  /// One cell of the grid (channel-sharded across the pool when one exists).
  SimResult run(const std::string& app, PrefetcherKind kind);

  /// Runs `kinds` on every paper app, fanning the (app x kind) cells over the
  /// thread pool when `threads > 1`. Results keyed [app][kind-name] and
  /// bit-identical to the serial sweep at any thread count.
  ///
  /// Failure isolation is opt-in: with `failures` null (the default), the
  /// first cell exception propagates exactly as before. With a sink supplied,
  /// each cell runs isolated — a throwing cell gets one bounded retry, and if
  /// that also throws, the cell's slot stays default-constructed and one
  /// FailureReport is appended (deterministic cell order) while every other
  /// cell runs to completion. A 44-cell overnight sweep no longer forfeits 43
  /// results to one poisoned cell.
  std::map<std::string, std::map<std::string, SimResult>> sweep(
      const std::vector<PrefetcherKind>& kinds, bool verbose = false,
      std::vector<FailureReport>* failures = nullptr);

  const SimConfig& config() const { return config_; }
  std::uint64_t records() const { return records_; }
  std::size_t threads() const { return pool_ ? pool_->size() : 1; }
  common::ThreadPool* pool() { return pool_.get(); }

  /// Planaria table configuration used for the planaria/* kinds; mutable so
  /// ablation benches can sweep its parameters.
  core::PlanariaConfig& planaria_config() { return planaria_; }
  prefetch::BopConfig& bop_config() { return bop_; }
  prefetch::SppConfig& spp_config() { return spp_; }

  void clear_trace_cache();

  /// Sweep-level checkpointing (DESIGN.md §11). With a directory set — by
  /// default from PLANARIA_CHECKPOINT_DIR — every completed (app x kind) cell
  /// persists its SimResult atomically; a restarted sweep reloads those cells
  /// verbatim instead of re-simulating them, and a corrupt or mismatched cell
  /// file is simply rerun. Cells additionally checkpoint mid-run (each under
  /// its own label, so concurrent cells never collide) when
  /// PLANARIA_CHECKPOINT_EVERY is also set. Empty disables everything. A
  /// cell file is reloaded only if it was written for the same record count,
  /// configuration (SimConfig and the prefetcher configs) and trace.
  void set_checkpoint_dir(std::string dir) { checkpoint_dir_ = std::move(dir); }
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }

 private:
  /// Map node holding one lazily generated trace; std::map guarantees the
  /// node (and its once_flag) stays put while cells share it.
  struct TraceEntry {
    std::once_flag once;
    trace::TraceBatch batch;
    std::uint64_t fingerprint = 0;  ///< sim::trace_fingerprint(batch)
  };

  TraceEntry& trace_entry(const std::string& app);

  SimResult run_cell(const std::string& app, PrefetcherKind kind,
                     const PrefetcherFactory& factory);

  /// What a persisted cell result is valid for, besides the record count,
  /// app and kind its header already names: every configuration knob and
  /// the cell's trace. A stored cell whose key differs is rerun.
  struct CellKey {
    std::uint64_t config_digest = 0;
    std::uint64_t trace_fingerprint = 0;
  };

  /// FNV-1a digest of config_ and the planaria/BOP/SPP configurations.
  std::uint64_t config_digest() const;

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
  std::mutex traces_mutex_;                   ///< guards map shape only
  std::map<std::string, TraceEntry> traces_;
  std::string checkpoint_dir_;        ///< empty = no sweep checkpointing
  std::uint64_t checkpoint_every_ = 0;  ///< mid-cell interval; 0 = cell-only
};

/// One SimResult per kind, each equal to ExperimentRunner(config,
/// records).run(app, kind) at the default prefetcher configurations, without
/// ever holding the whole trace: every kind's Simulator runs each
/// `chunk_rows`-row chunk of trace::AppTraceStream(app, records) before the
/// next chunk is generated. Exact, because consecutive run_sharded calls are
/// bit-identical to one call over their union. Memory is bounded by the chunk
/// and the simulators, not by `records`. Throws std::invalid_argument on
/// chunk_rows == 0 and whatever the stream's constructor throws.
std::vector<SimResult> run_streamed(const SimConfig& config,
                                    const trace::AppProfile& app,
                                    std::uint64_t records,
                                    const std::vector<PrefetcherKind>& kinds,
                                    std::size_t chunk_rows,
                                    common::ThreadPool* pool = nullptr);

/// Geometric-mean helper for "average over apps" rows (the paper's averages
/// of ratios are reported as arithmetic means of per-app percentages; both
/// are provided).
double mean(const std::vector<double>& xs);
double geomean_ratio(const std::vector<double>& ratios);

}  // namespace planaria::sim
