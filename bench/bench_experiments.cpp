// Regenerates every EXPERIMENTS.md table and figure in one run.
//
// The paper's headline, Fig. 7, Fig. 8, Fig. 9 and Fig. 10 are views of one
// (app x prefetcher) grid, so that grid is swept once, fanned over the pool
// that PLANARIA_THREADS sizes, and every grid section prints from it. The
// trace studies (Fig. 2/4/5), the storage table and the ablations keep their
// own record caps and runners. Sections print in paper order; stdout depends
// only on PLANARIA_RECORDS (default 1.6M), never on the thread count, and
// sweep progress goes to stderr.
#include <algorithm>
#include <set>

#include "analysis/analysis.hpp"
#include "bench_util.hpp"
#include "core/storage.hpp"
#include "trace/generator.hpp"

namespace {

using namespace planaria;
using Grid = std::map<std::string, std::map<std::string, sim::SimResult>>;

/// The four series of Fig. 7, Fig. 8, Fig. 10 and the headline.
const std::vector<sim::PrefetcherKind> kSeries = {
    sim::PrefetcherKind::kNone, sim::PrefetcherKind::kBop,
    sim::PrefetcherKind::kSpp, sim::PrefetcherKind::kPlanaria};

// Figure 2: the footprint snapshot of one memory page.
//
// The paper's scatter plot (arrival cycle vs block number) illustrates
// Observation 1: a stable set of blocks is touched together in brief
// intervals, the snapshot repeats after a long reuse distance, and the order
// within a snapshot is shuffled. This section renders the same scatter for
// the hottest page of an app's trace as ASCII (one column per time bucket,
// one row per block), plus the quantified properties. Returns false on an
// empty trace.
bool fig2_footprint() {
  bench::print_header("Figure 2: footprint snapshot of a memory page",
                      "Fig. 2 — block/time scatter; Observation 1");

  const auto& app = trace::app_by_name("HoK");
  const auto records =
      trace::generate_app_trace(app, std::min<std::uint64_t>(
                                         bench::default_records(), 400000));
  PageNumber page = 0;
  if (!analysis::hottest_page(records, page)) {
    std::printf("empty trace\n");
    return false;
  }
  const auto samples = analysis::footprint_snapshot(records, page);
  std::printf("app=HoK page=0x%llx accesses=%zu\n\n",
              static_cast<unsigned long long>(page), samples.size());

  // ASCII scatter: 96 time buckets x 64 block rows.
  constexpr int kCols = 96;
  const Cycle t0 = samples.front().arrival;
  const Cycle t1 = std::max(samples.back().arrival, t0 + 1);
  std::vector<std::string> rows(kBlocksPerPage, std::string(kCols, '.'));
  for (const auto& s : samples) {
    const int col = static_cast<int>((s.arrival - t0) * (kCols - 1) / (t1 - t0));
    rows[static_cast<std::size_t>(s.block)][static_cast<std::size_t>(col)] = '#';
  }
  std::printf("block |time ->  (%llu .. %llu cycles)\n",
              static_cast<unsigned long long>(t0),
              static_cast<unsigned long long>(t1));
  for (int b = kBlocksPerPage - 1; b >= 0; --b) {
    bool any = rows[static_cast<std::size_t>(b)].find('#') != std::string::npos;
    if (!any) continue;  // compact: only accessed blocks get a row
    std::printf("%5d |%s\n", b, rows[static_cast<std::size_t>(b)].c_str());
  }

  // Quantify the three observations.
  std::set<int> constituent;
  for (const auto& s : samples) constituent.insert(s.block);
  std::printf("\nconstituent blocks: %zu of 64 (stable set, paper: \"the\n"
              "constituent and structure of the snapshot are stable\")\n",
              constituent.size());

  // Reuse distance: gaps between consecutive touches of the same block.
  std::vector<Cycle> last(kBlocksPerPage, 0);
  std::vector<bool> seen(kBlocksPerPage, false);
  double reuse_sum = 0;
  std::uint64_t reuse_n = 0;
  for (const auto& s : samples) {
    if (seen[static_cast<std::size_t>(s.block)]) {
      reuse_sum += static_cast<double>(s.arrival - last[static_cast<std::size_t>(s.block)]);
      ++reuse_n;
    }
    seen[static_cast<std::size_t>(s.block)] = true;
    last[static_cast<std::size_t>(s.block)] = s.arrival;
  }
  if (reuse_n > 0) {
    std::printf("mean block reuse distance: %.0f cycles (long temporal gap)\n",
                reuse_sum / static_cast<double>(reuse_n));
  }
  std::printf("access order within snapshots is shuffled by construction\n"
              "(paper: \"highly unpredictable sequence of deltas\")\n");
  return true;
}

// Figure 4: the window overlap rate of footprint snapshots per application.
//
// Methodology from Fig. 3: per page, consecutive equal-size access windows
// are reduced to block sets and compared; overlap = |cur ∩ prev| / |cur|.
// Paper: the average overlap rate exceeds 80% on every app, validating that
// page number alone (no PC) is an adequate signature for a footprint.
void fig4_overlap() {
  bench::print_header("Figure 4: snapshot overlap rate per application (%)",
                      "Fig. 4 — overlap rate of different applications");

  const auto records = std::min<std::uint64_t>(bench::default_records(), 400000);
  std::printf("%-10s %10s %14s %12s\n", "app", "overlap", "windows", "pages");
  std::vector<double> overlaps;
  for (const auto& app : trace::paper_apps()) {
    const auto trace = trace::generate_app_trace(app, records);
    const auto result = analysis::overlap_rate(trace);
    overlaps.push_back(100.0 * result.average_overlap);
    std::printf("%-10s %9.1f%% %14llu %12llu\n", app.name.c_str(),
                100.0 * result.average_overlap,
                static_cast<unsigned long long>(result.windows_compared),
                static_cast<unsigned long long>(result.pages_analyzed));
  }
  std::printf("%-10s %9.1f%%\n", "average", sim::mean(overlaps));
  std::printf("\npaper: average overlap rate > 80%% on every application\n");
}

// Figure 5: the proportion of learnable neighboring pages vs the distance
// threshold.
//
// Two pages are learnable neighbors when their final access bitmaps differ by
// at most 4 bits and their page numbers differ by at most the distance
// threshold. Paper: on average 26.95% of pages have such a neighbor at
// distance 4, rising to 39.26% at distance 64 — the headroom TLP harvests.
void fig5_neighbors() {
  bench::print_header(
      "Figure 5: proportion of learnable neighboring pages (%)",
      "Fig. 5 — learnable neighbors vs distance threshold");

  const std::vector<std::uint64_t> thresholds = {4, 8, 16, 32, 64};
  const auto records = std::min<std::uint64_t>(bench::default_records(), 400000);

  std::printf("%-10s", "app");
  for (const auto d : thresholds) std::printf("   dist<=%-3llu",
                                              static_cast<unsigned long long>(d));
  std::printf("\n");

  std::vector<double> sums(thresholds.size(), 0.0);
  int n = 0;
  for (const auto& app : trace::paper_apps()) {
    const auto trace = trace::generate_app_trace(app, records);
    const auto fractions =
        analysis::learnable_neighbor_fraction(trace, thresholds);
    std::printf("%-10s", app.name.c_str());
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      std::printf("   %8.2f%%", 100.0 * fractions[i]);
      sums[i] += 100.0 * fractions[i];
    }
    std::printf("\n");
    ++n;
  }
  std::printf("%-10s", "average");
  for (double s : sums) std::printf("   %8.2f%%", s / n);
  std::printf("\n\npaper: average 26.95%% at distance 4, 39.26%% at 64\n");
}

// Figure 7: hit rate of the system cache with different prefetchers.
//
// Paper series: per-app SC hit rate for {no prefetcher, BOP, SPP, Planaria}.
// Expected shape: Planaria raises the hit rate most on every app; BOP raises
// it modestly (at great traffic cost, see Fig. 8); SPP sits between.
void fig7_hitrate(const Grid& grid) {
  bench::print_header("Figure 7: SC hit rate per application (%)",
                      "Fig. 7 — hit rate of SC with different prefetchers");

  bench::print_apps_header("prefetcher");
  for (const auto kind : kSeries) {
    const char* name = sim::prefetcher_kind_name(kind);
    std::vector<double> row;
    for (const auto& app : trace::app_names()) {
      row.push_back(100.0 * grid.at(app).at(name).sc_hit_rate);
    }
    row.push_back(sim::mean(row));
    bench::print_series_row(name, row);
  }
  std::printf(
      "\npaper: Planaria raises SC hit rate on every app; BOP's gains are\n"
      "smaller and bought with traffic (see Fig. 8 bench for the anomaly).\n");
}

// Figure 8: AMAT of the memory system with different prefetchers, plus the
// Section-1 motivation numbers (traffic overhead of each prefetcher).
//
// Paper headlines:
//   * Planaria reduces AMAT by 24.3% / 21.3% / 15.1% vs none / BOP / SPP.
//   * BOP *increases* AMAT on Fort, NBA2 and PM despite raising hit rate
//     (superfluous prefetches congest the LPDDR4 channels).
//   * Motivation (§1): SPP/BOP reduce AMAT only 10.8% / 3.3% while adding
//     15.9% / 23.4% memory traffic.
void fig8_amat(const Grid& grid) {
  bench::print_header("Figure 8: AMAT per application (memory-controller cycles)",
                      "Fig. 8 — AMAT with different prefetchers; §1 traffic");
  const auto& apps = trace::app_names();

  bench::print_apps_header("prefetcher");
  for (const auto kind : kSeries) {
    const char* name = sim::prefetcher_kind_name(kind);
    std::vector<double> row;
    for (const auto& app : apps) row.push_back(grid.at(app).at(name).amat_cycles);
    row.push_back(sim::mean(row));
    bench::print_series_row(name, row);
  }

  // AMAT reductions of Planaria vs each baseline (paper: 24.3/21.3/15.1%).
  std::printf("\nAMAT reduction of planaria vs baseline (%%):\n");
  bench::print_apps_header("baseline");
  for (const auto kind : {sim::PrefetcherKind::kNone, sim::PrefetcherKind::kBop,
                          sim::PrefetcherKind::kSpp}) {
    const char* name = sim::prefetcher_kind_name(kind);
    std::vector<double> row;
    for (const auto& app : apps) {
      row.push_back(100.0 * grid.at(app).at("planaria").amat_reduction_vs(
                                grid.at(app).at(name)));
    }
    row.push_back(sim::mean(row));
    bench::print_series_row(name, row);
  }
  std::printf("paper:      vs none 24.3%%   vs bop 21.3%%   vs spp 15.1%%\n");

  // Traffic overhead vs no-prefetcher (paper §1: SPP +15.9%, BOP +23.4%).
  std::printf("\nDRAM traffic overhead vs none (%%):\n");
  bench::print_apps_header("prefetcher");
  for (const auto kind : {sim::PrefetcherKind::kBop, sim::PrefetcherKind::kSpp,
                          sim::PrefetcherKind::kPlanaria}) {
    const char* name = sim::prefetcher_kind_name(kind);
    std::vector<double> row;
    for (const auto& app : apps) {
      row.push_back(100.0 * grid.at(app).at(name).traffic_overhead_vs(
                                grid.at(app).at("none")));
    }
    row.push_back(sim::mean(row));
    bench::print_series_row(name, row);
  }
  std::printf("paper:      bop +23.4%%   spp +15.9%%   (planaria: small)\n");

  // The BOP anomaly: apps where BOP raises hit rate yet raises AMAT too.
  std::printf("\nBOP anomaly check (paper: Fort, NBA2, PM):\n");
  for (const auto& app : apps) {
    const auto& none = grid.at(app).at("none");
    const auto& bop = grid.at(app).at("bop");
    if (bop.sc_hit_rate > none.sc_hit_rate && bop.amat_cycles > none.amat_cycles) {
      std::printf("  %s: hit %.1f%% -> %.1f%% but AMAT %.1f -> %.1f\n",
                  app.c_str(), 100 * none.sc_hit_rate, 100 * bop.sc_hit_rate,
                  none.amat_cycles, bop.amat_cycles);
    }
  }
}

// Figure 9: breakdown of Planaria's improvement into SLP vs TLP shares.
//
// Methodology: ablation runs per app — {none, SLP-only, full Planaria}. The
// share attributed to SLP is the AMAT improvement SLP-only achieves over the
// no-prefetcher baseline; TLP's share is the additional improvement the full
// coordinator adds on top. Cross-checked against the cache's fill-source
// attribution (useful prefetches tagged SLP vs TLP).
//
// Paper shape: SLP contributes ~80% of the overall gain; TLP's contribution
// is small on CFM/QSM/HI3/KO/NBA2 and dominant on Fort (SLP starves there,
// and the low-priority TLP finally gets to issue).
void fig9_breakdown(const Grid& grid) {
  bench::print_header("Figure 9: Planaria performance breakdown (SLP vs TLP)",
                      "Fig. 9 — Planaria performance breakdown");
  const auto& apps = trace::app_names();

  std::printf("%-10s %10s %10s %10s %9s %9s %14s\n", "app", "amat-none",
              "amat-slp", "amat-full", "slp-share", "tlp-share", "useful slp/tlp");
  std::vector<double> slp_shares;
  for (const auto& app : apps) {
    const auto& none = grid.at(app).at("none");
    const auto& slp = grid.at(app).at("planaria-slp");
    const auto& full = grid.at(app).at("planaria");
    const double total_gain = none.amat_cycles - full.amat_cycles;
    const double slp_gain = none.amat_cycles - slp.amat_cycles;
    double slp_share = total_gain > 0 ? slp_gain / total_gain : 0.0;
    if (slp_share < 0) slp_share = 0;
    if (slp_share > 1) slp_share = 1;
    slp_shares.push_back(slp_share);
    std::printf("%-10s %10.1f %10.1f %10.1f %8.1f%% %8.1f%% %8llu/%llu\n",
                app.c_str(), none.amat_cycles, slp.amat_cycles, full.amat_cycles,
                100 * slp_share, 100 * (1 - slp_share),
                static_cast<unsigned long long>(full.hits_on_slp),
                static_cast<unsigned long long>(full.hits_on_tlp));
  }
  std::printf("%-10s %43s %8.1f%% %8.1f%%\n", "average", "",
              100 * sim::mean(slp_shares), 100 * (1 - sim::mean(slp_shares)));
  std::printf(
      "\npaper: SLP ~80%% of overall improvement on average; TLP contributes\n"
      "most of Fort's improvement and little on CFM/QSM/HI3/KO/NBA2.\n");
}

// Figure 10: power consumption of the memory system with different
// prefetchers.
//
// Paper headlines: Planaria adds only 0.5% average power (range -3.3%..+2.8%,
// with HI3 and PM actually *saving* power); BOP adds 13.5% and SPP 9.7%.
// The mechanism: useless prefetches are pure extra DRAM activate/read energy,
// while accurate prefetches merely move a read earlier; Planaria's metadata
// adds a small SRAM leakage term.
void fig10_power(const Grid& grid) {
  bench::print_header("Figure 10: memory-system power per application (mW)",
                      "Fig. 10 — power consumption with different prefetchers");
  const auto& apps = trace::app_names();

  bench::print_apps_header("prefetcher");
  for (const auto kind : kSeries) {
    const char* name = sim::prefetcher_kind_name(kind);
    std::vector<double> row;
    for (const auto& app : apps) {
      row.push_back(grid.at(app).at(name).total_power_mw);
    }
    row.push_back(sim::mean(row));
    bench::print_series_row(name, row, " %8.1f");
  }

  std::printf("\npower increase vs none (%%):\n");
  bench::print_apps_header("prefetcher");
  for (const auto kind : {sim::PrefetcherKind::kBop, sim::PrefetcherKind::kSpp,
                          sim::PrefetcherKind::kPlanaria}) {
    const char* name = sim::prefetcher_kind_name(kind);
    std::vector<double> row;
    for (const auto& app : apps) {
      row.push_back(100.0 * grid.at(app).at(name).power_increase_vs(
                                grid.at(app).at("none")));
    }
    row.push_back(sim::mean(row));
    bench::print_series_row(name, row);
  }
  std::printf(
      "paper:      bop +13.5%%   spp +9.7%%   planaria +0.5%% "
      "(range -3.3%%..+2.8%%)\n");
}

// Headline IPC result (abstract / §1): overall system performance in IPC.
//
// Paper: Planaria improves IPC by 28.9% / 21.9% / 15.3% on average over
// no prefetcher / BOP / SPP. The paper evaluates IPC with an RTL model; we
// substitute the analytic core model of CpuModelParams (instructions per SC
// access + exposed-stall fraction — see DESIGN.md), which preserves the
// ordering and approximate magnitude because IPC at this intensity is an
// almost-affine function of demand AMAT.
void headline_ipc(const Grid& grid) {
  bench::print_header("Headline: IPC improvement of Planaria",
                      "abstract/§1 — IPC +28.9%/+21.9%/+15.3% vs none/BOP/SPP");
  const auto& apps = trace::app_names();

  bench::print_apps_header("prefetcher");
  for (const auto kind : kSeries) {
    const char* name = sim::prefetcher_kind_name(kind);
    std::vector<double> row;
    for (const auto& app : apps) row.push_back(grid.at(app).at(name).ipc);
    row.push_back(sim::mean(row));
    bench::print_series_row(name, row, " %8.3f");
  }

  std::printf("\nIPC gain of planaria vs baseline (%%):\n");
  bench::print_apps_header("baseline");
  for (const auto kind : {sim::PrefetcherKind::kNone, sim::PrefetcherKind::kBop,
                          sim::PrefetcherKind::kSpp}) {
    const char* name = sim::prefetcher_kind_name(kind);
    std::vector<double> row;
    for (const auto& app : apps) {
      row.push_back(
          100.0 * grid.at(app).at("planaria").ipc_gain_vs(grid.at(app).at(name)));
    }
    row.push_back(sim::mean(row));
    bench::print_series_row(name, row);
  }
  std::printf("paper:      vs none +28.9%%   vs bop +21.9%%   vs spp +15.3%%\n");
}

// Storage overhead (§6): "The storage of Planaria is 345.2KB, which is only
// 8.4% of the capacity of 4MB SC."
//
// Bit-exact accounting of every Planaria table across the four channels,
// substituting for the paper's Verilog synthesis area estimate.
void table_storage() {
  bench::print_header("Table: Planaria metadata storage",
                      "§6 — 345.2KB, 8.4% of the 4MB SC");

  const core::PlanariaConfig config;
  const auto breakdown = core::planaria_storage(config);

  std::printf("%-62s %9s %6s %12s\n", "table (per channel)", "entries",
              "bits", "KB/channel");
  for (const auto& item : breakdown.items) {
    std::printf("%-62s %9llu %6llu %12.2f\n", item.name.c_str(),
                static_cast<unsigned long long>(item.entries),
                static_cast<unsigned long long>(item.bits_per_entry),
                static_cast<double>(item.bits()) / 8.0 / 1024.0);
  }
  const double per_channel_kb =
      static_cast<double>(breakdown.per_channel_bits()) / 8.0 / 1024.0;
  const double total_kb = breakdown.total_kb();
  const double frac = breakdown.fraction_of_sc(4ull << 20);
  std::printf("%-62s %9s %6s %12.2f\n", "total per channel", "", "",
              per_channel_kb);
  std::printf("\ntotal over %d channels: %.1f KB  (%.1f%% of the 4MB SC)\n",
              kChannels, total_kb, 100.0 * frac);
  std::printf("paper: 345.2 KB (8.4%% of the 4MB SC)\n");

  // Per-prefetcher comparison: metadata budgets of the baselines.
  std::printf("\nbaseline metadata (per channel, KB): ");
  {
    prefetch::BestOffsetPrefetcher bop;
    prefetch::SignaturePathPrefetcher spp;
    std::printf("bop %.2f, spp %.2f\n",
                static_cast<double>(bop.storage_bits()) / 8.0 / 1024.0,
                static_cast<double>(spp.storage_bits()) / 8.0 / 1024.0);
  }
}

// Ablation: SLP design choices (DESIGN.md §4).
//
// Sweeps the three SLP knobs the paper fixes by construction and reports
// their AMAT/accuracy impact on one SLP-friendly app (HoK) and one hostile
// app (PM):
//   * FT promotion threshold (paper: 3 distinct offsets) — lower thresholds
//     admit one-touch noise pages into the AT/PT.
//   * AT timeout — too short fragments snapshots, too long delays learning.
//   * PT capacity — must hold the app's hot-page population.
void run_slp_sweep(sim::ExperimentRunner& runner, const char* label,
                   const std::vector<std::string>& apps) {
  for (const auto& app : apps) {
    const auto r = runner.run(app, sim::PrefetcherKind::kPlanaria);
    std::printf("  %-24s %-5s amat=%7.1f hit=%5.1f%% acc=%5.1f%% cov=%5.1f%%\n",
                label, app.c_str(), r.amat_cycles, 100 * r.sc_hit_rate,
                100 * r.prefetch_accuracy, 100 * r.prefetch_coverage);
  }
}

void ablation_slp() {
  bench::print_header("Ablation: SLP parameters (FT threshold, AT timeout, PT size)",
                      "design-choice ablations for Section 3");
  const std::vector<std::string> apps = {"HoK", "PM"};
  const auto records = std::min<std::uint64_t>(bench::default_records(), 600000);

  std::printf("FT promotion threshold (paper default 3):\n");
  for (int threshold : {1, 2, 3}) {
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    runner.planaria_config().slp.promote_threshold = threshold;
    char label[32];
    std::snprintf(label, sizeof label, "promote_threshold=%d", threshold);
    run_slp_sweep(runner, label, apps);
  }

  std::printf("\nAT timeout (cycles, paper: \"time-out mechanism\"):\n");
  for (Cycle timeout : {Cycle{5000}, Cycle{50000}, Cycle{500000}}) {
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    runner.planaria_config().slp.at_timeout = timeout;
    char label[32];
    std::snprintf(label, sizeof label, "at_timeout=%llu",
                  static_cast<unsigned long long>(timeout));
    run_slp_sweep(runner, label, apps);
  }

  std::printf("\nPT capacity (entries per channel):\n");
  for (int ways : {2, 6, 12}) {
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    runner.planaria_config().slp.pt_ways = ways;
    char label[32];
    std::snprintf(label, sizeof label, "pt_entries=%d", 1024 * ways);
    run_slp_sweep(runner, label, apps);
  }
}

// Ablation: TLP design choices (DESIGN.md §4).
//
// Sweeps the RPT size, the page-number distance threshold (Fig. 5/6's 64),
// and the bitmap similarity floor (the worked example's 4 common bits) on the
// TLP showcase app (Fort) and on an SLP-dominated app (HoK) where TLP should
// stay out of the way.
void run_tlp_sweep(sim::ExperimentRunner& runner, const char* label,
                   const std::vector<std::string>& apps) {
  for (const auto& app : apps) {
    const auto r = runner.run(app, sim::PrefetcherKind::kPlanaria);
    std::printf(
        "  %-24s %-5s amat=%7.1f acc=%5.1f%% cov=%5.1f%% tlp_hits=%llu\n",
        label, app.c_str(), r.amat_cycles, 100 * r.prefetch_accuracy,
        100 * r.prefetch_coverage,
        static_cast<unsigned long long>(r.hits_on_tlp));
  }
}

void ablation_tlp() {
  bench::print_header(
      "Ablation: TLP parameters (RPT size, distance, similarity floor)",
      "design-choice ablations for Section 4");
  const std::vector<std::string> apps = {"Fort", "HoK"};
  const auto records = std::min<std::uint64_t>(bench::default_records(), 600000);

  std::printf("RPT entries (paper: 128):\n");
  for (int entries : {32, 64, 128, 256}) {
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    runner.planaria_config().tlp.rpt_entries = entries;
    char label[32];
    std::snprintf(label, sizeof label, "rpt_entries=%d", entries);
    run_tlp_sweep(runner, label, apps);
  }

  std::printf("\ndistance threshold (paper: 64 pages):\n");
  for (std::uint64_t dist : {4ull, 16ull, 64ull, 256ull}) {
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    runner.planaria_config().tlp.distance_threshold = dist;
    char label[32];
    std::snprintf(label, sizeof label, "distance<=%llu",
                  static_cast<unsigned long long>(dist));
    run_tlp_sweep(runner, label, apps);
  }

  std::printf("\nsimilarity floor in common bits (paper example: 4):\n");
  for (int common : {2, 4, 8}) {
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    runner.planaria_config().tlp.min_common_bits = common;
    char label[32];
    std::snprintf(label, sizeof label, "min_common_bits=%d", common);
    run_tlp_sweep(runner, label, apps);
  }
}

// Ablation: the paper's §1 motivation — "neither state-of-the-art cache
// replacement policies nor increasing cache size significantly improve SC
// performance", which is what justifies building a prefetcher instead.
//
// Runs the no-prefetcher baseline across replacement policies and SC sizes
// and contrasts the best of those against what Planaria achieves at the
// stock configuration.
void ablation_cache() {
  bench::print_header(
      "Ablation: replacement policy and SC size (no prefetcher)",
      "§1 — replacement/size insensitivity of the SC");
  const auto records = std::min<std::uint64_t>(bench::default_records(), 600000);
  const std::vector<std::string> apps = {"HoK", "Fort", "NBA2"};

  std::printf("replacement policy sweep (4MB SC, no prefetcher):\n");
  for (const auto kind :
       {cache::ReplacementKind::kLru, cache::ReplacementKind::kRandom,
        cache::ReplacementKind::kSrrip, cache::ReplacementKind::kDrrip}) {
    sim::SimConfig config;
    config.cache.replacement = kind;
    sim::ExperimentRunner runner(config, records);
    for (const auto& app : apps) {
      const auto r = runner.run(app, sim::PrefetcherKind::kNone);
      std::printf("  %-8s %-5s amat=%7.1f hit=%5.1f%%\n",
                  cache::replacement_name(kind), app.c_str(), r.amat_cycles,
                  100 * r.sc_hit_rate);
    }
  }

  std::printf("\nSC size sweep (LRU, no prefetcher; per-channel slice shown):\n");
  for (const std::uint64_t mb : {2ull, 4ull, 8ull}) {
    sim::SimConfig config;
    config.cache.size_bytes = mb << 20 >> 2;  // total mb MB over 4 channels
    sim::ExperimentRunner runner(config, records);
    for (const auto& app : apps) {
      const auto r = runner.run(app, sim::PrefetcherKind::kNone);
      std::printf("  %lluMB     %-5s amat=%7.1f hit=%5.1f%%\n",
                  static_cast<unsigned long long>(mb), app.c_str(),
                  r.amat_cycles, 100 * r.sc_hit_rate);
    }
  }

  std::printf("\nreference: Planaria at the stock 4MB/LRU configuration:\n");
  {
    sim::ExperimentRunner runner(sim::SimConfig{}, records);
    for (const auto& app : apps) {
      const auto r = runner.run(app, sim::PrefetcherKind::kPlanaria);
      std::printf("  planaria %-5s amat=%7.1f hit=%5.1f%%\n", app.c_str(),
                  r.amat_cycles, 100 * r.sc_hit_rate);
    }
  }
  std::printf("\nrefresh mode sweep (LPDDR4 REFab vs REFpb, no prefetcher):\n");
  for (const bool per_bank : {false, true}) {
    sim::SimConfig config;
    config.dram.controller.per_bank_refresh = per_bank;
    sim::ExperimentRunner runner(config, records);
    for (const auto& app : apps) {
      const auto r = runner.run(app, sim::PrefetcherKind::kNone);
      std::printf("  %-8s %-5s amat=%7.1f hit=%5.1f%%\n",
                  per_bank ? "REFpb" : "REFab", app.c_str(), r.amat_cycles,
                  100 * r.sc_hit_rate);
    }
  }

  std::printf(
      "\npaper: doubling the SC or changing replacement moves the needle far\n"
      "less than Planaria does — the SC's misses are capacity/compulsory\n"
      "misses over a huge working set, not recency mistakes.\n");
}

// Ablation: coordination strategy (paper Section 7 / Section 2).
//
// The paper's claim: the decoupled "parallel training, serial issuing"
// coordinator harvests the benefits of both prior classes — it matches the
// serial coordinator's accuracy (one issuer per trigger) while avoiding its
// cold-start cost (the inactive sub-prefetcher of a TPC-style serial design
// learns nothing), and it approaches the parallel coordinator's coverage
// without its duplicated low-confidence traffic.
//
// The same SLP/TLP instances run under all three coordinators, plus a
// PC-free SMS adaptation as the spatial-prefetcher yardstick (§7: spatial
// prefetchers "mainly rely on a PC"; without one their signatures alias).
void ablation_coordinator() {
  bench::print_header(
      "Ablation: coordinator strategy (decoupled vs serial vs parallel) + SMS",
      "§2/§7 — coordination classes and the PC-free SMS yardstick");
  const auto records = std::min<std::uint64_t>(bench::default_records(), 600000);
  const std::vector<std::string> apps = {"HoK", "Fort", "NBA2"};

  sim::ExperimentRunner runner(sim::SimConfig{}, records);
  std::printf("%-10s %-10s %10s %9s %9s %9s %10s\n", "app", "coord",
              "AMAT(cyc)", "hit-rate", "accuracy", "coverage", "traffic");
  for (const auto& app : apps) {
    const auto results = runner.run(
        app, {sim::PrefetcherKind::kNone, sim::PrefetcherKind::kSerialComposite,
              sim::PrefetcherKind::kParallelComposite,
              sim::PrefetcherKind::kSms, sim::PrefetcherKind::kPlanaria});
    const sim::SimResult& none = results.front();
    for (std::size_t i = 1; i < results.size(); ++i) {
      const sim::SimResult& r = results[i];
      std::printf("%-10s %-10s %10.1f %8.1f%% %8.1f%% %8.1f%% %+9.1f%%\n",
                  app.c_str(), r.prefetcher.c_str(), r.amat_cycles,
                  100 * r.sc_hit_rate, 100 * r.prefetch_accuracy,
                  100 * r.prefetch_coverage,
                  100 * r.traffic_overhead_vs(none));
    }
  }
  std::printf(
      "\nexpected shape: planaria's AMAT <= min(serial, parallel); parallel\n"
      "pays extra traffic for its coverage; serial forfeits coverage when the\n"
      "inactive sub-prefetcher misses training; sms trails them all (aliased\n"
      "PC-free signatures).\n");
}

/// The union of every grid section's kinds, swept once over all ten apps.
Grid sweep_grid() {
  sim::ExperimentRunner runner(sim::SimConfig{}, bench::default_records());
  std::vector<sim::PrefetcherKind> kinds = kSeries;
  kinds.push_back(sim::PrefetcherKind::kPlanariaSlpOnly);
  return runner.sweep(kinds, /*verbose=*/true);
}

}  // namespace

int main() {
  const Grid grid = sweep_grid();
  const bool ok = fig2_footprint();
  fig4_overlap();
  fig5_neighbors();
  fig7_hitrate(grid);
  fig8_amat(grid);
  fig9_breakdown(grid);
  fig10_power(grid);
  headline_ipc(grid);
  table_storage();
  ablation_slp();
  ablation_tlp();
  ablation_cache();
  ablation_coordinator();
  return ok ? 0 : 1;
}
