// Prefetcher diagnostics: per-app deep-dive into what each prefetcher did.
//
//   ./prefetcher_diag [app] [records] [prefetcher]
//
// Prints coordinator decisions, per-table learning counters, prefetch
// accuracy/coverage/pollution, and DRAM-side traffic — the numbers behind the
// headline figures, useful when calibrating workloads or tuning table sizes.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/env.hpp"
#include "core/planaria.hpp"
#include "sim/experiment.hpp"
#include "trace/generator.hpp"

int main(int argc, char** argv) {
  using namespace planaria;
  const std::string app = argc > 1 ? argv[1] : "HoK";
  const std::string kind_name = argc > 3 ? argv[3] : "planaria";

  try {
    const std::uint64_t records =
        argc > 2 ? *common::parse_env_uint("records", argv[2], 1, UINT64_MAX)
                 : 300000;
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    const auto kind = sim::prefetcher_kind_from_name(kind_name);

    // Re-run manually so we can inspect the live prefetcher objects.
    const auto trace =
        trace::generate_app_trace(trace::app_by_name(app), records);
    auto factory = sim::make_prefetcher_factory(kind, runner.planaria_config(),
                                                runner.bop_config(),
                                                runner.spp_config());
    sim::Simulator simulator(runner.config(), std::move(factory), kind_name);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      simulator.step(trace.record(i));
    }
    const auto result = simulator.finish();

    // Channel-0 prefetcher internals (all channels are statistically alike).
    if (const auto* p = dynamic_cast<const core::PlanariaPrefetcher*>(
            &simulator.prefetcher(0));
        p != nullptr) {
      const auto& ps = p->stats();
      const auto& ss = p->slp().stats();
      const auto& ts = p->tlp().stats();
      std::printf("— channel 0 coordinator —\n");
      std::printf("  triggers=%llu slp_issues=%llu tlp_issues=%llu none=%llu\n",
                  (unsigned long long)ps.triggers,
                  (unsigned long long)ps.slp_issues,
                  (unsigned long long)ps.tlp_issues,
                  (unsigned long long)ps.no_issues);
      std::printf("— channel 0 SLP —\n");
      std::printf(
          "  ft_inserts=%llu promotions=%llu snapshots=%llu (timeout=%llu "
          "capacity=%llu) issue_triggers=%llu prefetches=%llu\n",
          (unsigned long long)ss.ft_inserts, (unsigned long long)ss.promotions,
          (unsigned long long)ss.snapshots_learned,
          (unsigned long long)ss.timeout_evictions,
          (unsigned long long)ss.capacity_evictions,
          (unsigned long long)ss.issue_triggers,
          (unsigned long long)ss.prefetches_issued);
      std::printf("— channel 0 TLP —\n");
      std::printf(
          "  allocations=%llu issue_triggers=%llu transfers=%llu "
          "prefetches=%llu\n",
          (unsigned long long)ts.allocations,
          (unsigned long long)ts.issue_triggers,
          (unsigned long long)ts.transfers,
          (unsigned long long)ts.prefetches_issued);
    }

    const auto& cs = simulator.cache_slice(0).stats();
    std::printf("— channel 0 cache —\n");
    std::printf(
        "  demand=%llu hits=%llu pf_fills=%llu pf_used=%llu (slp=%llu tlp=%llu "
        "other=%llu) pf_dead=%llu pollution=%llu\n",
        (unsigned long long)cs.demand_accesses,
        (unsigned long long)cs.demand_hits,
        (unsigned long long)cs.prefetch_fills,
        (unsigned long long)cs.demand_hits_on_prefetch,
        (unsigned long long)cs.hits_on_slp, (unsigned long long)cs.hits_on_tlp,
        (unsigned long long)cs.hits_on_other_pf,
        (unsigned long long)cs.prefetch_unused_evictions,
        (unsigned long long)cs.pollution_misses);

    std::printf("— totals —\n");
    std::printf(
        "  amat=%.1f hit=%.1f%% acc=%.1f%% cov=%.1f%% issued=%llu dropped=%llu "
        "late=%llu dram_rd=%llu dram_wr=%llu bus=%.1f%% power=%.1fmW "
        "ipc=%.3f\n",
        result.amat_cycles, 100 * result.sc_hit_rate,
        100 * result.prefetch_accuracy, 100 * result.prefetch_coverage,
        (unsigned long long)result.prefetch_issued,
        (unsigned long long)result.prefetch_dropped,
        (unsigned long long)result.late_prefetch_merges,
        (unsigned long long)result.dram_reads,
        (unsigned long long)result.dram_writes,
        100 * result.data_bus_utilization, result.total_power_mw,
        result.ipc);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
