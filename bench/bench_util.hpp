// Shared helpers for the benches.
//
// bench_experiments regenerates every table and figure from the paper: each
// section prints the same rows/series the paper reports, plus the paper's
// headline value for side-by-side comparison. Record count defaults to a
// laptop-scale trace and scales with PLANARIA_RECORDS (the paper's traces
// are 67-71M records; the shapes are stable from ~1M on).
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace planaria::bench {

/// Default records per app for the figure sections. By 1.6M BOP and SPP have
/// converged and a full 10-app, 4-prefetcher grid still completes in
/// minutes; Planaria's gain is still rising there (bench_convergence). The
/// paper's traces are 67-71M records.
inline std::uint64_t default_records() {
  return sim::records_from_env(1600000);
}

/// Peak resident set size of this process in bytes (ru_maxrss is KiB on
/// Linux): the high-water mark across everything the bench has run so far.
inline std::uint64_t peak_rss_bytes() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
}

inline void print_header(const std::string& what, const std::string& paper_ref) {
  std::printf("=============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("=============================================================\n");
}

/// Prints "name  v1 v2 v3 ..." rows for per-app series.
inline void print_series_row(const std::string& name,
                             const std::vector<double>& values,
                             const char* fmt = " %8.2f") {
  std::printf("%-10s", name.c_str());
  for (double v : values) std::printf(fmt, v);
  std::printf("\n");
}

inline void print_apps_header(const char* row_label) {
  std::printf("%-10s", row_label);
  for (const auto& app : trace::app_names()) std::printf(" %8s", app.c_str());
  std::printf(" %8s\n", "avg");
}

}  // namespace planaria::bench
