// End-to-end sweep throughput: serial vs thread-pooled execution.
//
// Runs the full (10 app x 11 prefetcher kind) grid — the workload behind
// every figure bench — at 1, 2, 4 and hardware-concurrency threads and
// reports records simulated per second plus the speedup over serial. Before
// timing anything it asserts the engine's determinism contract: the pooled
// sweep must return bit-identical SimResults to the serial sweep for every
// registered prefetcher kind (a throughput number from a wrong simulation is
// worthless). Each run APPENDS one JSON-lines entry (git rev, per-thread-count
// records/sec, per-phase seconds, peak RSS, hardware concurrency) to the
// repo-root BENCH_throughput.json, so the file accumulates a machine-trackable
// perf trajectory across PRs instead of remembering only the latest run.
//
// Phase attribution (serial run): `trace_gen` is one drained trace stream
// per app, timed apart to show the cost of one generation; `simulate` is
// the sweep proper (each cell streams its own copy of that generation
// chunk by chunk, plus cell simulation and the grid assembly inside
// sweep()); `merge_verify` is the bench-side cross-thread-count
// bit-identity comparison.
//
// Record count defaults to a quick-run length; scale with PLANARIA_RECORDS.
// PLANARIA_THREADS does not apply here — this bench sweeps thread counts
// itself; override the swept counts with PLANARIA_BENCH_THREADS (comma
// separated, e.g. "1" for a serial-only profiling run — the determinism gate
// needs a pooled run and is skipped, with a note, when no count exceeds 1).
// PLANARIA_BENCH_TRAJECTORY overrides the trajectory file path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "io/vfs.hpp"

namespace {

using namespace planaria;
using SweepGrid = std::map<std::string, std::map<std::string, sim::SimResult>>;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Seconds to generate every app's trace once, each a drained stream, as
/// every sweep cell generates it (and discards it) chunk by chunk.
double trace_gen_seconds(std::uint64_t records) {
  const auto start = std::chrono::steady_clock::now();
  trace::TraceBatch chunk;
  for (const auto& app : trace::paper_apps()) {
    trace::AppTraceStream stream(app, records);
    while (stream.remaining() > 0) stream.next(chunk, std::size_t{1} << 16);
  }
  return seconds_since(start);
}

/// Runs one full-grid sweep at `threads`; the duration includes the
/// sweep's own trace generation.
double run_sweep_seconds(std::uint64_t records, std::size_t threads,
                         const std::vector<sim::PrefetcherKind>& kinds,
                         SweepGrid* out) {
  sim::ExperimentRunner runner(sim::SimConfig{}, records, threads);
  const auto start = std::chrono::steady_clock::now();
  SweepGrid grid = runner.sweep(kinds);
  const double elapsed = seconds_since(start);
  if (out != nullptr) *out = std::move(grid);
  return elapsed;
}

/// SimResult::operator== is defaulted memberwise equality, doubles compared
/// with == on purpose: the contract is bit-identity, not numeric tolerance.
bool bit_identical(const sim::SimResult& a, const sim::SimResult& b) {
  return a == b;
}

/// Thread counts to sweep: PLANARIA_BENCH_THREADS (comma separated, each in
/// [1, ThreadPool::kMaxThreads]) if set, else {1, 2, 4, hardware_concurrency
/// when > 4}. A serial run is always included — every other row is reported
/// relative to it. Throws std::invalid_argument on an empty or malformed
/// token.
std::vector<std::size_t> thread_counts_from_env() {
  std::vector<std::size_t> counts;
  if (const char* env = std::getenv("PLANARIA_BENCH_THREADS");
      env != nullptr && *env != '\0') {
    const std::string spec(env);
    std::size_t pos = 0;
    for (;;) {
      const std::size_t comma = spec.find(',', pos);
      const std::string tok = spec.substr(pos, comma - pos);
      if (tok.empty()) {
        throw std::invalid_argument("PLANARIA_BENCH_THREADS has an empty "
                                    "entry: \"" + spec + "\"");
      }
      counts.push_back(static_cast<std::size_t>(
          *common::parse_env_uint("PLANARIA_BENCH_THREADS", tok.c_str(), 1,
                                  common::ThreadPool::kMaxThreads)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  if (counts.empty()) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    counts = {1, 2, 4};
    if (hw > 4) counts.push_back(hw);
  }
  if (std::find(counts.begin(), counts.end(), std::size_t{1}) ==
      counts.end()) {
    counts.insert(counts.begin(), 1);
  }
  return counts;
}

/// FNV-1a over the workload-defining knobs. Throughput entries are only
/// comparable when they measured the same grid: records/sec at 2k records
/// per cell and at 100k are different quantities (fixed per-cell setup
/// amortizes differently), so the CI perf gate keys its baseline lookup on
/// this hash and compares like with like. The Python side of the gate
/// (.github/workflows/ci.yml perf-smoke) reimplements this byte for byte —
/// keep the two in sync.
std::uint64_t bench_config_hash(std::uint64_t records, std::size_t apps,
                                std::size_t kinds) {
  const std::string key = std::to_string(records) + "|" +
                          std::to_string(apps) + "|" + std::to_string(kinds);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

int main() {
  using namespace planaria;
  bench::print_header(
      "Sweep throughput: serial vs thread-pooled (records/sec)",
      "engine benchmark — no paper figure; tracks PR-over-PR perf");

  const std::uint64_t records = sim::records_from_env(100000);
  const auto& kinds = sim::all_prefetcher_kinds();
  const std::uint64_t grid_records =
      records * trace::app_names().size() * kinds.size();

  std::vector<std::size_t> thread_counts;
  try {
    thread_counts = thread_counts_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_throughput: %s\n", e.what());
    return 2;
  }
  const std::size_t max_threads =
      *std::max_element(thread_counts.begin(), thread_counts.end());

  // Determinism gate first: pooled results must equal serial results bit for
  // bit on every kind, or the speedup below is measuring a different
  // simulation. The pooled reference uses the widest swept count so the gate
  // covers the same pool configuration the timing rows do.
  SweepGrid serial_grid;
  const double trace_gen_s = trace_gen_seconds(records);
  const double serial_s = run_sweep_seconds(records, 1, kinds, &serial_grid);
  double merge_verify_s = 0.0;
  if (max_threads > 1) {
    SweepGrid pooled_grid;
    run_sweep_seconds(records, max_threads, kinds, &pooled_grid);
    const auto verify_start = std::chrono::steady_clock::now();
    for (const auto& [app, per_kind] : serial_grid) {
      for (const auto& [kind_name, result] : per_kind) {
        if (!bit_identical(result, pooled_grid.at(app).at(kind_name))) {
          std::fprintf(stderr,
                       "FATAL: parallel sweep diverged from serial on %s/%s\n",
                       app.c_str(), kind_name.c_str());
          return 1;
        }
      }
    }
    merge_verify_s = seconds_since(verify_start);
    std::printf("determinism: %zu-thread sweep bit-identical to serial on all "
                "%zu kinds x %zu apps\n\n",
                max_threads, kinds.size(), trace::app_names().size());
  } else {
    std::printf("determinism gate skipped: PLANARIA_BENCH_THREADS sweeps no "
                "pooled run\n\n");
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("phases (serial): trace_gen %.3fs, simulate %.3fs, "
              "merge_verify %.3fs\n\n",
              trace_gen_s, serial_s, merge_verify_s);
  std::printf("%8s %12s %14s %10s\n", "threads", "seconds", "records/sec",
              "speedup");

  // One self-contained JSON object per bench invocation, accumulated as a
  // JSON-lines trajectory (append, never overwrite): each line records the
  // revision the numbers were measured at.
  char hash_hex[24];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(bench_config_hash(
                    records, trace::app_names().size(), kinds.size())));
  std::string entry =
      "{\"git_rev\": \"" PLANARIA_GIT_REV "\", \"records_per_cell\": " +
      std::to_string(records) +
      ", \"apps\": " + std::to_string(trace::app_names().size()) +
      ", \"kinds\": " + std::to_string(kinds.size()) +
      ", \"grid_records\": " + std::to_string(grid_records) +
      ", \"bench_config_hash\": \"" + hash_hex +
      "\", \"hardware_concurrency\": " + std::to_string(hw) + ", \"runs\": [";

  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const std::size_t threads = thread_counts[i];
    const double seconds = threads == 1
                               ? serial_s
                               : run_sweep_seconds(records, threads, kinds,
                                                   nullptr);
    const double rps = seconds > 0.0
                           ? static_cast<double>(grid_records) / seconds
                           : 0.0;
    const double speedup = seconds > 0.0 ? serial_s / seconds : 0.0;
    std::printf("%8zu %12.3f %14.0f %9.2fx\n", threads, seconds, rps, speedup);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s{\"threads\": %zu, \"seconds\": %.6f, "
                  "\"records_per_sec\": %.1f, \"speedup_vs_serial\": %.4f}",
                  i == 0 ? "" : ", ", threads, seconds, rps, speedup);
    entry += buf;
  }
  char tail[224];
  std::snprintf(tail, sizeof tail,
                "], \"phases\": {\"trace_gen_seconds\": %.6f, "
                "\"simulate_seconds\": %.6f, \"merge_verify_seconds\": %.6f}, "
                "\"peak_rss_bytes\": %llu}\n",
                trace_gen_s, serial_s, merge_verify_s,
                static_cast<unsigned long long>(bench::peak_rss_bytes()));
  entry += tail;

  const char* traj_env = std::getenv("PLANARIA_BENCH_TRAJECTORY");
  const std::string trajectory = traj_env != nullptr && *traj_env != '\0'
                                     ? std::string(traj_env)
                                     : std::string(PLANARIA_BENCH_TRAJECTORY);
  // Routed through the io VFS: the append is advisory (a full disk must not
  // fail the bench), but it still participates in the storage-fault drills.
  if (io::append_line(trajectory, entry)) {
    std::printf("\nappended trajectory entry (rev %s) to %s\n",
                PLANARIA_GIT_REV, trajectory.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot append to %s\n", trajectory.c_str());
  }
  std::printf(
      "\nthe grid is embarrassingly parallel (110 independent cells, 4\n"
      "independent channels per cell); speedup at 4+ threads should approach\n"
      "the core count on an unloaded machine.\n");
  return 0;
}
