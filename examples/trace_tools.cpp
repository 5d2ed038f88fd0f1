// Trace utility CLI: generate synthetic app traces to disk, convert between
// binary and CSV, and print summary statistics — the workflow a user needs to
// feed their own bus captures into the simulator.
//
//   trace_tools gen <app> <records> <out.bin>
//   trace_tools convert <in.bin> <out.csv>        (direction by extension)
//   trace_tools stats <trace.bin|trace.csv>
//   trace_tools sim <trace.bin> <prefetcher>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/analysis.hpp"
#include "common/env.hpp"
#include "sim/simulator.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"
#include "trace/import.hpp"
#include "trace/io.hpp"

namespace {

using namespace planaria;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

trace::TraceBatch load(const std::string& path) {
  if (ends_with(path, ".csv")) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot open " + path);
    return trace::read_csv(is);
  }
  if (ends_with(path, ".trc")) {  // DRAMSim2 text format
    return trace::read_dramsim2_file(path);
  }
  return trace::read_binary_file(path);
}

void store(const std::string& path, const trace::TraceBatch& records) {
  if (ends_with(path, ".csv")) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open " + path);
    trace::write_csv(os, records);
    return;
  }
  if (ends_with(path, ".trc")) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open " + path);
    trace::write_dramsim2(os, records);
    return;
  }
  trace::write_binary_file(path, records);
}

int cmd_gen(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr, "usage: trace_tools gen <app> <records> <out>\n");
    return 2;
  }
  const auto& app = trace::app_by_name(argv[2]);
  const auto records =
      *common::parse_env_uint("records", argv[3], 1, UINT64_MAX);
  const auto trace = trace::generate_app_trace(app, records);
  store(argv[4], trace);
  std::printf("wrote %zu records (%s) to %s\n", trace.size(),
              app.description.c_str(), argv[4]);
  return 0;
}

int cmd_convert(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: trace_tools convert <in> <out>\n");
    return 2;
  }
  const auto records = load(argv[2]);
  store(argv[3], records);
  std::printf("converted %zu records: %s -> %s\n", records.size(), argv[2],
              argv[3]);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: trace_tools stats <trace>\n");
    return 2;
  }
  const auto records = load(argv[2]);
  if (records.empty()) {
    std::printf("empty trace\n");
    return 0;
  }
  std::uint64_t writes = 0;
  std::uint64_t per_device[static_cast<int>(DeviceId::kCount)] = {};
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::TraceRecord r = records.record(i);
    writes += r.type == AccessType::kWrite ? 1 : 0;
    ++per_device[static_cast<int>(r.device)];
  }
  const auto bitmaps = analysis::page_bitmaps(records);
  double blocks_per_page = 0;
  for (const auto& [pn, bm] : bitmaps) blocks_per_page += bm.popcount();
  blocks_per_page /= static_cast<double>(bitmaps.size());

  const Cycle span =
      records.arrivals()[records.size() - 1] - records.arrivals()[0];
  std::printf("records:          %zu\n", records.size());
  std::printf("span:             %llu cycles (%.2f ms @1.6GHz)\n",
              static_cast<unsigned long long>(span),
              static_cast<double>(span) / 1.6e6);
  std::printf("write fraction:   %.1f%%\n",
              100.0 * static_cast<double>(writes) /
                  static_cast<double>(records.size()));
  std::printf("distinct pages:   %zu\n", bitmaps.size());
  std::printf("blocks/page:      %.1f of 64\n", blocks_per_page);
  std::printf("footprint:        %.1f MB\n",
              static_cast<double>(bitmaps.size()) * blocks_per_page * 64 /
                  (1024.0 * 1024.0));
  const auto overlap = analysis::overlap_rate(records);
  std::printf("overlap rate:     %.1f%% over %llu windows (Fig. 4 metric)\n",
              100.0 * overlap.average_overlap,
              static_cast<unsigned long long>(overlap.windows_compared));
  std::printf("per device:      ");
  for (int d = 0; d < static_cast<int>(DeviceId::kCount); ++d) {
    if (per_device[d] > 0) {
      std::printf(" %s=%.1f%%", device_name(static_cast<DeviceId>(d)),
                  100.0 * static_cast<double>(per_device[d]) /
                      static_cast<double>(records.size()));
    }
  }
  std::printf("\n");
  return 0;
}

int cmd_sim(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: trace_tools sim <trace> <prefetcher>\n");
    return 2;
  }
  const auto records = load(argv[2]);
  const auto kind = sim::prefetcher_kind_from_name(argv[3]);
  const auto result = sim::Simulator::run(
      sim::SimConfig{}, sim::make_prefetcher_factory(kind), argv[3], records);
  std::printf("%s: amat=%.1f cycles, hit=%.1f%%, accuracy=%.1f%%, "
              "coverage=%.1f%%, power=%.1f mW\n",
              result.prefetcher.c_str(), result.amat_cycles,
              100 * result.sc_hit_rate, 100 * result.prefetch_accuracy,
              100 * result.prefetch_coverage, result.total_power_mw);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2) {
      if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
      if (std::strcmp(argv[1], "convert") == 0) return cmd_convert(argc, argv);
      if (std::strcmp(argv[1], "stats") == 0) return cmd_stats(argc, argv);
      if (std::strcmp(argv[1], "sim") == 0) return cmd_sim(argc, argv);
    }
    std::fprintf(stderr,
                 "usage: trace_tools <gen|convert|stats|sim> ...\n"
                 "  gen <app> <records> <out.bin|.csv|.trc>\n"
                 "  convert <in> <out>\n"
                 "  stats <trace>\n"
                 "  sim <trace> <none|bop|spp|planaria|...>\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
