// Shared pieces of the repo benchmark harness: options, the result sink,
// output digests, seeded inputs, workload shapes and the timing helpers the
// untraced (workloads.cpp) and traced (traced.cpp) runs both use.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"
#include "trace/batch.hpp"
#include "trace/generator.hpp"

namespace perfbench {

namespace sim = planaria::sim;
namespace serve = planaria::serve;
namespace trace = planaria::trace;
namespace common = planaria::common;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Seed whose digests are pinned in perfbench/pinned_digests.txt.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Seed that leaves every app profile at its stock seed, so the grid equals
/// what ExperimentRunner::sweep produces.
inline constexpr std::uint64_t kStockSeed = 0;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string pinned_path = "perfbench/pinned_digests.txt";
  /// Print the default-seed digests in pinned-file form and exit.
  bool print_pins = false;
  std::size_t threads = 1;  ///< pooled thread count (<= nproc, <= 4)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the gate verdict, op counts and named metrics.
/// Human-readable lines go to stdout before the final JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Marks the run incorrect, counting `ops` failed ops, and says why.
  void fail(const std::string& why, std::uint64_t ops = 1);
  /// Informational line (sample counts, paper comparisons).
  static void note(const std::string& line);
  std::string json() const;
};

/// splitmix64 finalizer.
std::uint64_t mix64(std::uint64_t x);

/// The app profile a workload seed selects: the stock profile at kStockSeed,
/// else the stock profile with its seed perturbed by the workload seed.
trace::AppProfile seeded_profile(const std::string& app, std::uint64_t seed);

/// Median / percentile over a sample (nearest rank); the input is copied.
double percentile(std::vector<double> xs, double p);
inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50.0);
}

/// Process user+sys CPU seconds so far.
double cpu_seconds();
/// Peak resident set size in MiB.
double peak_rss_mb();

/// Removes and recreates `dir` (inside the checkout).
void fresh_dir(const std::string& dir);

// ---------------------------------------------------------------- workloads

/// A grid of (app x kind) cells over generated traces. grid_sweep fans the
/// cells over the pool (each also channel-sharded on it, as
/// ExperimentRunner::sweep does); planaria_long runs its cells one at a time,
/// each channel-sharded on the pool.
struct CellSet {
  std::vector<std::string> apps;
  std::vector<trace::TraceBatch> batches;  ///< one per app
  struct Cell {
    std::size_t app = 0;
    sim::PrefetcherKind kind = sim::PrefetcherKind::kNone;
  };
  std::vector<Cell> cells;
  bool fan_out = true;

  std::uint64_t records() const;  ///< records simulated by one pass
  std::string label(std::size_t cell) const;
};

/// Shape of a cell workload before its traces exist.
struct CellShape {
  std::vector<std::string> apps;
  std::vector<sim::PrefetcherKind> kinds;
  std::uint64_t records_per_app = 0;
  bool fan_out = true;
  bool via_pltb = false;  ///< write each trace as PLTB and map it back
};

CellShape grid_shape(bool canary);
CellShape long_shape(bool canary);
/// Generates (and for via_pltb round-trips through PLTB under `workdir`) the
/// traces of `shape` at `seed`. `gen_ns`/`pltb_ns`, when non-null, receive
/// the time spent in generate_app_trace and in the PLTB write + map + copy.
CellSet build_cells(const CellShape& shape, std::uint64_t seed,
                    const std::string& workdir, std::int64_t* gen_ns = nullptr,
                    std::int64_t* pltb_ns = nullptr);

/// One cell, untraced: Simulator -> run_sharded(batch, pool) -> finish.
sim::SimResult run_cell(const trace::TraceBatch& batch,
                        sim::PrefetcherKind kind, common::ThreadPool* pool);
/// Every cell of `set`; `cell_ms`, when non-null, receives each cell's wall
/// time in cell order.
std::vector<sim::SimResult> run_cells(const CellSet& set,
                                      common::ThreadPool* pool,
                                      std::vector<double>* cell_ms);

/// The serve_fleet tenant mix and server knobs.
struct FleetShape {
  std::size_t sessions = 0;
  serve::ServeConfig config;
};
FleetShape fleet_shape(bool canary);
std::vector<serve::SessionSpec> fleet_specs(const FleetShape& shape,
                                            std::uint64_t seed);

/// One serve pass: a fresh server over a fresh checkpoint dir, ticked to
/// completion. With `keep_ticks`, each tick's wall time, the ServeCounters
/// after it and the live sessions before it are kept.
struct FleetRun {
  std::vector<serve::SessionOutcome> outcomes;
  serve::ServeCounters counters;
  std::vector<double> tick_ms;
  std::vector<serve::ServeCounters> after_tick;
  std::vector<std::size_t> live_before_tick;
};
FleetRun run_fleet(const FleetShape& shape,
                   const std::vector<serve::SessionSpec>& specs,
                   std::size_t threads, const std::string& ckpt_dir,
                   bool keep_ticks);

// ---------------------------------------------------------------- entry points

/// Untraced run: set-up, warm pass, timed serial/pooled passes, output gates
/// and every end-to-end metric.
void run_untraced(const Options& opt, Report& report);
/// Traced run: spans around every public call the benchmark makes, the
/// decorator prefetcher, the cache/DRAM replay and every per-layer metric.
void run_traced(const Options& opt, Report& report);
/// Default-seed digests of every workload (canary and full), in pinned-file
/// form.
void print_pins(const Options& opt);

}  // namespace perfbench
