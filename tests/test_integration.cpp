// Integration tests: the full pipeline (generator -> 4-channel SC + Planaria
// + LPDDR4) at reduced scale, asserting the paper's qualitative claims hold
// end to end, plus determinism and cross-module consistency checks.
// PaperRelations pins the two Fig. 8 relationships that only hold at the
// default 1.6M records, so this suite carries the ctest label "science".
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "core/storage.hpp"
#include "sim/experiment.hpp"

namespace planaria::sim {
namespace {

/// Shared small-scale grid: computed once, asserted on by several tests.
class IntegrationFixture : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kRecords = 400000;

  static ExperimentRunner& runner() {
    static ExperimentRunner instance{SimConfig{}, kRecords};
    return instance;
  }

  static const SimResult& result(const std::string& app, PrefetcherKind kind) {
    static std::map<std::string, SimResult> cache;
    const std::string key = app + "/" + prefetcher_kind_name(kind);
    auto it = cache.find(key);
    if (it == cache.end()) {
      it = cache.emplace(key, runner().run(app, kind)).first;
    }
    return it->second;
  }
};

TEST_F(IntegrationFixture, PlanariaBeatsNoPrefetcherOnEveryApp) {
  for (const auto& app : trace::app_names()) {
    const auto& none = result(app, PrefetcherKind::kNone);
    const auto& planaria = result(app, PrefetcherKind::kPlanaria);
    EXPECT_LT(planaria.amat_cycles, none.amat_cycles) << app;
    EXPECT_GT(planaria.sc_hit_rate, none.sc_hit_rate) << app;
  }
}

TEST_F(IntegrationFixture, PlanariaTrafficIsModest) {
  // The paper's selling point: big gains without BOP/SPP-class traffic.
  for (const auto& app : {"HoK", "CFM", "Fort"}) {
    const auto& none = result(app, PrefetcherKind::kNone);
    const auto& planaria = result(app, PrefetcherKind::kPlanaria);
    const auto& bop = result(app, PrefetcherKind::kBop);
    EXPECT_LT(planaria.traffic_overhead_vs(none),
              0.5 * bop.traffic_overhead_vs(none))
        << app;
  }
}

TEST_F(IntegrationFixture, PlanariaAccuracyExceedsBaselines) {
  for (const auto& app : {"HoK", "NBA2"}) {
    const auto& planaria = result(app, PrefetcherKind::kPlanaria);
    const auto& bop = result(app, PrefetcherKind::kBop);
    const auto& spp = result(app, PrefetcherKind::kSpp);
    EXPECT_GT(planaria.prefetch_accuracy, bop.prefetch_accuracy) << app;
    EXPECT_GT(planaria.prefetch_accuracy, spp.prefetch_accuracy) << app;
  }
}

TEST_F(IntegrationFixture, PowerOrderingMatchesPaper) {
  // Planaria's power overhead must be far below BOP's and SPP's.
  for (const auto& app : {"HoK", "PM"}) {
    const auto& none = result(app, PrefetcherKind::kNone);
    const auto& planaria = result(app, PrefetcherKind::kPlanaria);
    const auto& bop = result(app, PrefetcherKind::kBop);
    EXPECT_LT(planaria.power_increase_vs(none), bop.power_increase_vs(none))
        << app;
  }
}

TEST_F(IntegrationFixture, SlpDominatesOnSlpFriendlyApps) {
  // Fig. 9: on CFM/QSM/HI3/KO/NBA2 "the effect of TLP is limited". SLP needs
  // one full visit per page to warm up, so this is asserted at the fixture's
  // larger scale.
  for (const auto& app : {"CFM", "HI3"}) {
    const auto& planaria = result(app, PrefetcherKind::kPlanaria);
    EXPECT_GT(planaria.hits_on_slp, planaria.hits_on_tlp) << app;
  }
}

TEST_F(IntegrationFixture, TlpCarriesFort) {
  const auto& planaria = result("Fort", PrefetcherKind::kPlanaria);
  EXPECT_GT(planaria.hits_on_tlp, planaria.hits_on_slp)
      << "Fort is the transfer-learning showcase (paper Fig. 9)";
}

TEST_F(IntegrationFixture, IpcImprovesWithPlanaria) {
  for (const auto& app : {"HoK", "QSM"}) {
    const auto& none = result(app, PrefetcherKind::kNone);
    const auto& planaria = result(app, PrefetcherKind::kPlanaria);
    EXPECT_GT(planaria.ipc_gain_vs(none), 0.05) << app;
  }
}

TEST_F(IntegrationFixture, CoordinatorNeverIdleWhenPatternsExist) {
  const auto& planaria = result("HoK", PrefetcherKind::kPlanaria);
  EXPECT_GT(planaria.slp_issues, 0u);
  EXPECT_GT(planaria.tlp_issues, 0u);
}

TEST_F(IntegrationFixture, DemandTrafficConservedAcrossPrefetchers) {
  // Prefetchers may add traffic but never change the demand stream itself.
  const auto& none = result("HoK", PrefetcherKind::kNone);
  const auto& planaria = result("HoK", PrefetcherKind::kPlanaria);
  EXPECT_EQ(none.demand_reads, planaria.demand_reads);
  EXPECT_EQ(none.demand_writes, planaria.demand_writes);
}

/// The Fig. 8 grid at EXPERIMENTS.md's default 1.6M records: none and BOP on
/// every app, plus SPP and Planaria on TikT. 22 cells over a pool, computed
/// once. At 400k-1.2M records the BOP anomaly covers a subset of its paper
/// apps and Planaria loses to SPP on TikT, so neither relation may be
/// checked at a smaller scale.
class PaperRelations : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kRecords = 1600000;

  struct Grid {
    std::map<std::string, std::map<std::string, SimResult>> baselines;
    SimResult tikt_spp;
    SimResult tikt_planaria;
  };

  static const Grid& grid() {
    static const Grid instance = [] {
      ExperimentRunner runner(
          SimConfig{}, kRecords,
          common::ThreadPool::threads_from_env(
              std::max(1u, std::thread::hardware_concurrency())));
      Grid g;
      g.baselines =
          runner.sweep({PrefetcherKind::kNone, PrefetcherKind::kBop});
      g.tikt_spp = runner.run("TikT", PrefetcherKind::kSpp);
      g.tikt_planaria = runner.run("TikT", PrefetcherKind::kPlanaria);
      return g;
    }();
    return instance;
  }
};

TEST_F(PaperRelations, BopAnomalyIsExactlyFortNba2Pm) {
  // Paper §6: BOP raises the SC hit rate yet raises AMAT on Fort, NBA2 and
  // PM. At 1.6M Fort's AMAT goes 97.1 -> 118.2 cycles, but the other two
  // margins are thin: NBA2 69.2 -> 69.8, PM 72.7 -> 73.2.
  std::set<std::string> anomalous;
  for (const auto& [app, cells] : grid().baselines) {
    const SimResult& none = cells.at("none");
    const SimResult& bop = cells.at("bop");
    if (bop.sc_hit_rate > none.sc_hit_rate &&
        bop.amat_cycles > none.amat_cycles) {
      anomalous.insert(app);
    }
  }
  EXPECT_EQ(anomalous, (std::set<std::string>{"Fort", "NBA2", "PM"}));
}

TEST_F(PaperRelations, PlanariaBeatsSppOnTikT) {
  // Planaria's AMAT is below SPP's on every app in Fig. 8. TikT is the
  // closest: 56.2 against 57.1 cycles at 1.6M (it loses below 1.6M).
  EXPECT_LT(grid().tikt_planaria.amat_cycles, grid().tikt_spp.amat_cycles);
}

TEST(IntegrationDeterminism, SameSeedSameResult) {
  ExperimentRunner a(SimConfig{}, 40000);
  ExperimentRunner b(SimConfig{}, 40000);
  const auto ra = a.run("KO", PrefetcherKind::kPlanaria);
  const auto rb = b.run("KO", PrefetcherKind::kPlanaria);
  EXPECT_EQ(ra.amat_cycles, rb.amat_cycles);
  EXPECT_EQ(ra.dram_reads, rb.dram_reads);
  EXPECT_EQ(ra.prefetch_issued, rb.prefetch_issued);
  EXPECT_EQ(ra.hits_on_slp, rb.hits_on_slp);
}

TEST(IntegrationStorage, SimReportsPlanariaStorageBudget) {
  ExperimentRunner runner(SimConfig{}, 20000);
  const auto r = runner.run("HoK", PrefetcherKind::kPlanaria);
  // 4 channels x per-channel metadata; must match the storage accounting.
  const auto breakdown = core::planaria_storage(runner.planaria_config());
  EXPECT_EQ(r.storage_bits, breakdown.total_bits());
}

}  // namespace
}  // namespace planaria::sim
