// Trace analysis tools behind the paper's observation figures.
//
//  * footprint_snapshot()    — Fig. 2: the (arrival time, block) scatter of
//    one page, demonstrating stable snapshot membership, long reuse distance,
//    and shuffled intra-snapshot order.
//  * overlap_rate()          — Fig. 3/4 methodology: per page, the accessed-
//    block set of consecutive equal-size windows is compared; the overlap
//    rate |cur ∩ prev| / |cur| averaged over windows and pages validates
//    Observation 1 (paper: > 80% on every app).
//  * learnable_neighbor_fraction() — Fig. 5: the fraction of pages that have
//    at least one page within a page-number distance threshold whose final
//    access bitmap differs by at most `max_bit_diff` bits (Observation 2;
//    paper: 26.95% average at distance 4, 39.26% at 64).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "common/types.hpp"
#include "trace/batch.hpp"

namespace planaria::analysis {

/// Exact online summary of one metric stream (AMAT, IPC, hit rate ... one
/// value per finished serving session). Values are kept sorted, so every
/// observable — quantiles by nearest rank, the mean summed in ascending
/// order, min/max — is a pure function of the value *set*, independent of
/// insertion order. That insertion-order independence is load-bearing: the
/// serving loop folds sessions in as they finish, while a resumed server
/// rebuilds the same summary from checkpointed results in session-id order,
/// and the two must compare equal bit for bit (operator== included).
/// Insertion is O(n); fleets are thousands of sessions, not millions.
class StreamSummary {
 public:
  void add(double value);
  std::uint64_t count() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }
  /// Nearest-rank quantile (q in [0, 1]); 0.0 on an empty summary.
  double quantile(double q) const;
  /// Mean accumulated in ascending value order (deterministic bytes).
  double mean() const;
  double min() const { return sorted_.empty() ? 0.0 : sorted_.front(); }
  double max() const { return sorted_.empty() ? 0.0 : sorted_.back(); }
  friend bool operator==(const StreamSummary&, const StreamSummary&) = default;

 private:
  std::vector<double> sorted_;
};

/// StreamSummary keyed by a grouping label (app name, device class). The
/// serve layer maintains one per reported metric and surfaces rolling
/// per-app / per-device percentiles from live fleets.
struct GroupedSummary {
  std::map<std::string, StreamSummary> groups;
  void add(const std::string& key, double value) { groups[key].add(value); }
  const StreamSummary* find(const std::string& key) const;
  friend bool operator==(const GroupedSummary&, const GroupedSummary&) = default;
};

struct FootprintSample {
  Cycle arrival;
  int block;  ///< 0..63 within the page
};

/// Access scatter for `page`; empty if the page never appears.
std::vector<FootprintSample> footprint_snapshot(const trace::TraceBatch& trace,
                                                PageNumber page);

/// The page with the most accesses (a good Fig. 2 subject). Returns false if
/// the trace is empty.
bool hottest_page(const trace::TraceBatch& trace, PageNumber& page_out);

struct OverlapResult {
  double average_overlap = 0.0;  ///< mean over all windows of all pages
  std::uint64_t windows_compared = 0;
  std::uint64_t pages_analyzed = 0;
};

/// Window methodology of Fig. 3. `window` is the number of accesses per
/// window for each page; the paper sizes it from the page's typical accessed
/// block count, so `window == 0` means "per page, use that page's distinct
/// block count".
OverlapResult overlap_rate(const trace::TraceBatch& trace,
                           std::uint64_t window = 0);

/// Final access bitmap (64 blocks) of every page in the trace.
std::map<PageNumber, PageBitmap> page_bitmaps(const trace::TraceBatch& trace);

/// Fraction of pages with at least one learnable neighbor for each distance
/// threshold in `distance_thresholds` (bit-difference floor `max_bit_diff`,
/// paper default 4).
std::vector<double> learnable_neighbor_fraction(
    const trace::TraceBatch& trace,
    const std::vector<std::uint64_t>& distance_thresholds,
    int max_bit_diff = 4);

}  // namespace planaria::analysis
