// The one k-way merge of arrival-sorted record sources.
//
// merge_sorted merges materialized batches with it; generate_app_trace merges
// its four generator sources while they run, a chunk at a time, so no
// sub-stream is ever materialized. Either way the merge appends straight into
// the output batch's columns.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "check/contract.hpp"
#include "trace/batch.hpp"

namespace planaria::trace::detail {

/// One source's refill buffer: a small run of rows, so the merge scans heads
/// and each source's loop runs with its state in registers.
inline constexpr std::size_t kMergeChunk = 256;
using MergeChunk = std::array<TraceRecord, kMergeChunk>;

/// Appends the records of `k` sources to `out` in (arrival, source index)
/// order. `refill(s)` returns source s's next run of records as a span that
/// stays valid until the next refill(s) call; an empty span means s is
/// exhausted. Each step appends the earliest current head — ties go to the
/// lower source index, so the merge is stable — by a branch-free linear scan,
/// which beats a heap at the handful of sources merged here. Each source's
/// own order is checked as its next record becomes its head (O(1) per
/// record); under a non-throwing contract mode an out-of-order record is
/// placed by its claimed arrival and every record is still emitted.
template <typename Refill>
void merge_sources(std::size_t k, Refill&& refill, TraceBatch& out) {
  struct Head {
    Cycle arrival;  // == cur->arrival
    const TraceRecord* cur;
    const TraceRecord* end;
    std::size_t source;
  };
  std::vector<Head> live;  // ascending source index
  live.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::span<const TraceRecord> run = refill(s);
    if (run.empty()) continue;
    live.push_back(
        Head{run.front().arrival, run.data(), run.data() + run.size(), s});
  }
  while (!live.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < live.size(); ++i) {
      best = live[i].arrival < live[best].arrival ? i : best;
    }
    Head& h = live[best];
    out.push_back(*h.cur);
    const Cycle prev = h.arrival;
    if (++h.cur == h.end) {
      const std::span<const TraceRecord> run = refill(h.source);
      if (run.empty()) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
        continue;
      }
      h.cur = run.data();
      h.end = run.data() + run.size();
    }
    h.arrival = h.cur->arrival;
    PLANARIA_REQUIRE_MSG(kTimingMonotonicity, h.arrival >= prev,
                         "merge input stream is not sorted by arrival");
  }
}

}  // namespace planaria::trace::detail
