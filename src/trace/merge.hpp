// The k-way merge of arrival-sorted record sources.
//
// AppTraceStream merges its four generator sources with it while they run,
// a chunk at a time, so no sub-stream is ever materialized. The merge
// appends straight into the output batch's columns, and it can stop after
// any row and resume where it stopped.
#pragma once

#include <algorithm>
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

/// Merges the records of `k` sources in (arrival, source index) order.
/// `refill(s)` returns source s's next run of records as a span that stays
/// valid until the next refill(s) call; an empty span means s is exhausted.
/// Each step appends the earliest current head — ties go to the lower source
/// index, so the merge is stable — by a branch-free linear scan, which beats
/// a heap at the handful of sources merged here. Each source's own order is
/// checked as its next record becomes its head (O(1) per record); under a
/// non-throwing contract mode an out-of-order record is placed by its claimed
/// arrival and every record is still emitted.
class SourceMerge {
 public:
  /// Takes each source's first run.
  template <typename Refill>
  SourceMerge(std::size_t k, Refill&& refill) {
    live_.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      const std::span<const TraceRecord> run = refill(s);
      if (run.empty()) continue;
      live_.push_back(
          Head{run.front().arrival, run.data(), run.data() + run.size(), s});
    }
  }

  /// Appends the next min(max_rows, rows left) records to `out`, refilling
  /// through the same `refill` the merge was primed with, and returns how
  /// many it appended. Stopping after any row loses nothing: the next call
  /// continues from the same heads.
  template <typename Refill>
  std::size_t append(Refill&& refill, TraceBatch& out, std::size_t max_rows) {
    // The head array's base and length stay in locals for the loop, so the
    // batch's byte-wide meta stores cannot force them to be reloaded.
    if (live_.empty()) return 0;
    Head* const live = live_.data();
    std::size_t k = live_.size();
    std::size_t left = max_rows;
    while (left > 0) {
      --left;
      std::size_t best = 0;
      for (std::size_t i = 1; i < k; ++i) {
        best = live[i].arrival < live[best].arrival ? i : best;
      }
      Head& h = live[best];
      out.push_back(*h.cur);
      const Cycle prev = h.arrival;
      if (++h.cur == h.end) {
        const std::span<const TraceRecord> run = refill(h.source);
        if (run.empty()) {
          std::copy(live + best + 1, live + k, live + best);
          if (--k == 0) break;
          continue;
        }
        h.cur = run.data();
        h.end = run.data() + run.size();
      }
      h.arrival = h.cur->arrival;
      PLANARIA_REQUIRE_MSG(kTimingMonotonicity, h.arrival >= prev,
                           "merge input stream is not sorted by arrival");
    }
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(k), live_.end());
    return max_rows - left;
  }

 private:
  struct Head {
    Cycle arrival;  // == cur->arrival
    const TraceRecord* cur;
    const TraceRecord* end;
    std::size_t source;
  };
  std::vector<Head> live_;  // ascending source index
};

}  // namespace planaria::trace::detail
