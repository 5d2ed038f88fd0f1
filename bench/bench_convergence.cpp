// Convergence study: how the headline comparison depends on trace length.
//
// The paper's traces are 67-71M records; the figure benches default to 1M.
// This bench sweeps the record count on one representative app and reports
// the AMAT reduction of each prefetcher vs no-prefetcher, showing where the
// shape stabilizes — the justification for the default, and the guide for
// how far PLANARIA_RECORDS needs to go when chasing asymptotic numbers.
//
// Expected: Planaria's edge *grows* with trace length (self-learning
// compounds: more revisits per page means more PT-covered misses), while
// BOP/SPP converge quickly (their tables warm within ~100k records).
//
// Each length runs its four simulators through ExperimentRunner::run, which
// feeds them one trace::AppTraceStream chunk at a time, so memory stays flat
// in the length: with PLANARIA_RECORDS above 1.6M the ladder goes on
// doubling up to that length (16M, 64M). After each row the process peak RSS and the row's wall time go
// to stderr as "convergence_row records=<n> wall_s=<s> threads=<t>
// peak_rss_mib=<m>"; stdout carries the table only.
#include <algorithm>
#include <chrono>

#include "bench_util.hpp"

int main() {
  using namespace planaria;
  bench::print_header("Convergence: AMAT reduction vs trace length (HoK)",
                      "methodology check for the 1M-record default");

  std::vector<std::uint64_t> lengths = {100000, 200000, 400000, 800000,
                                        1600000};
  const std::uint64_t longest = sim::records_from_env(lengths.back());
  while (lengths.back() < longest) {
    lengths.push_back(std::min(2 * lengths.back(), longest));
  }
  const std::vector<sim::PrefetcherKind> kinds = {
      sim::PrefetcherKind::kNone, sim::PrefetcherKind::kBop,
      sim::PrefetcherKind::kSpp, sim::PrefetcherKind::kPlanaria};

  std::printf("%-10s %12s %12s %12s %12s\n", "records", "bop", "spp",
              "planaria", "hit(planaria)");
  for (const auto records : lengths) {
    const auto t0 = std::chrono::steady_clock::now();
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    const auto r = runner.run("HoK", kinds);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    const sim::SimResult& none = r[0];
    std::printf("%-10llu %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
                static_cast<unsigned long long>(records),
                100 * r[1].amat_reduction_vs(none),
                100 * r[2].amat_reduction_vs(none),
                100 * r[3].amat_reduction_vs(none), 100 * r[3].sc_hit_rate);
    std::fflush(stdout);
    std::fprintf(stderr,
                 "convergence_row records=%llu wall_s=%.1f threads=%zu "
                 "peak_rss_mib=%.1f\n",
                 static_cast<unsigned long long>(records), wall_s,
                 runner.threads(),
                 static_cast<double>(bench::peak_rss_bytes()) / (1 << 20));
  }
  std::printf(
      "\nPlanaria's gain compounds with page revisits; the baselines warm\n"
      "early. The paper's 67-71M-record traces sit beyond the right edge.\n");
  return 0;
}
