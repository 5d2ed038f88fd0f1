// Quickstart: simulate one mobile app trace through the system cache with and
// without Planaria, and print the headline metrics.
//
//   ./quickstart [app] [records]
//
// app defaults to "HoK" (Honor of Kings), records to 300000.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/env.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace planaria;
  const std::string app = argc > 1 ? argv[1] : "HoK";

  try {
    const std::uint64_t records =
        argc > 2 ? *common::parse_env_uint("records", argv[2], 1, UINT64_MAX)
                 : 300000;
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    std::printf("app=%s records=%llu\n\n", app.c_str(),
                static_cast<unsigned long long>(records));
    std::printf("%-10s %10s %9s %9s %9s %10s %10s\n", "prefetcher",
                "AMAT(cyc)", "hit-rate", "accuracy", "coverage", "traffic",
                "power(mW)");

    const auto results = runner.run(
        app, {sim::PrefetcherKind::kNone, sim::PrefetcherKind::kBop,
              sim::PrefetcherKind::kSpp, sim::PrefetcherKind::kPlanaria});
    const sim::SimResult& baseline = results.front();
    for (const sim::SimResult& r : results) {
      std::printf("%-10s %10.1f %8.1f%% %8.1f%% %8.1f%% %+9.1f%% %10.1f\n",
                  r.prefetcher.c_str(), r.amat_cycles, 100.0 * r.sc_hit_rate,
                  100.0 * r.prefetch_accuracy, 100.0 * r.prefetch_coverage,
                  100.0 * r.traffic_overhead_vs(baseline), r.total_power_mw);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
