// Per-application deep dive: reproduce the paper's narrative for one workload
// end to end — observation figures (footprint stability, learnable
// neighbors), then the full prefetcher comparison, then the Planaria
// breakdown. `./app_study Fort` tells the transfer-learning story; the
// default HoK tells the self-learning one.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/analysis.hpp"
#include "common/env.hpp"
#include "sim/experiment.hpp"
#include "trace/generator.hpp"

int main(int argc, char** argv) {
  using namespace planaria;
  const std::string app_name = argc > 1 ? argv[1] : "HoK";

  try {
    const std::uint64_t records =
        argc > 2 ? *common::parse_env_uint("records", argv[2], 1, UINT64_MAX)
                 : sim::records_from_env(400000);
    const auto& app = trace::app_by_name(app_name);
    std::printf("=== %s — %s ===\n\n", app.name.c_str(),
                app.description.c_str());

    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    const trace::TraceBatch trace = trace::generate_app_trace(app, records);

    // --- Observation 1: footprint stability (Fig. 3/4 methodology) ---
    const auto overlap = analysis::overlap_rate(trace);
    std::printf("observation 1 — intra-page snapshots:\n");
    std::printf("  window overlap rate: %.1f%% over %llu windows "
                "(paper: >80%%)\n",
                100 * overlap.average_overlap,
                static_cast<unsigned long long>(overlap.windows_compared));

    // --- Observation 2: learnable neighbors (Fig. 5) ---
    const auto fractions =
        analysis::learnable_neighbor_fraction(trace, {4, 16, 64});
    std::printf("observation 2 — inter-page similarity:\n");
    std::printf("  learnable neighbors: %.1f%% (d<=4), %.1f%% (d<=16), "
                "%.1f%% (d<=64)\n\n",
                100 * fractions[0], 100 * fractions[1], 100 * fractions[2]);

    // --- The comparison grid ---
    std::printf("%-14s %10s %9s %9s %9s %10s %10s\n", "prefetcher",
                "AMAT(cyc)", "hit-rate", "accuracy", "coverage", "traffic",
                "power");
    const auto results =
        runner.run(app_name, {sim::PrefetcherKind::kNone,
                              sim::PrefetcherKind::kBop,
                              sim::PrefetcherKind::kSpp,
                              sim::PrefetcherKind::kPlanariaSlpOnly,
                              sim::PrefetcherKind::kPlanariaTlpOnly,
                              sim::PrefetcherKind::kPlanaria});
    const sim::SimResult& none = results.front();
    for (const sim::SimResult& r : results) {
      std::printf("%-14s %10.1f %8.1f%% %8.1f%% %8.1f%% %+9.1f%% %+9.1f%%\n",
                  r.prefetcher.c_str(), r.amat_cycles, 100 * r.sc_hit_rate,
                  100 * r.prefetch_accuracy, 100 * r.prefetch_coverage,
                  100 * r.traffic_overhead_vs(none),
                  100 * r.power_increase_vs(none));
    }

    // --- Coordinator attribution ---
    const sim::SimResult& full = results.back();
    const auto total_issues = full.slp_issues + full.tlp_issues;
    std::printf("\ncoordinator: %llu triggers issued by SLP (%.1f%%), "
                "%llu by TLP (%.1f%%)\n",
                static_cast<unsigned long long>(full.slp_issues),
                total_issues ? 100.0 * static_cast<double>(full.slp_issues) /
                                   static_cast<double>(total_issues)
                             : 0.0,
                static_cast<unsigned long long>(full.tlp_issues),
                total_issues ? 100.0 * static_cast<double>(full.tlp_issues) /
                                   static_cast<double>(total_issues)
                             : 0.0);
    std::printf("useful prefetch hits: SLP %llu, TLP %llu\n",
                static_cast<unsigned long long>(full.hits_on_slp),
                static_cast<unsigned long long>(full.hits_on_tlp));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
