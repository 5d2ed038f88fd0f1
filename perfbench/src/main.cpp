// perfbench: the repo benchmark. See perfbench/README.md.
//
//   perfbench --workload grid_sweep|planaria_long|serve_fleet --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--pins FILE]
//   perfbench --print-pins
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used, 10);
    if (used != v.size()) throw std::invalid_argument(v);
    return x;
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": " + v);
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--print-pins") {
      opt.print_pins = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(a, v));
    } else if (a == "--trace") {
      opt.trace = parse_u64(a, v) != 0;
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else if (a == "--pins") {
      opt.pinned_path = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = std::min<std::size_t>(4, hw);

  try {
    if (opt.print_pins) {
      perfbench::print_pins(opt);
      return 0;
    }
    if (opt.workload.empty()) usage("--workload is required");
    perfbench::Report report;
    if (opt.trace) {
      perfbench::run_traced(opt, report);
    } else {
      perfbench::run_untraced(opt, report);
    }
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
