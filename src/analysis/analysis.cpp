#include "analysis/analysis.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace planaria::analysis {

void StreamSummary::add(double value) {
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value),
                 value);
}

double StreamSummary::quantile(double q) const {
  if (sorted_.empty()) return 0.0;
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  // Nearest rank: ceil(q * n) as a 1-based rank.
  const double scaled = q * static_cast<double>(sorted_.size());
  std::size_t rank = static_cast<std::size_t>(scaled);
  if (static_cast<double>(rank) < scaled) ++rank;
  if (rank == 0) rank = 1;
  return sorted_[rank - 1];
}

double StreamSummary::mean() const {
  if (sorted_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : sorted_) sum += v;
  return sum / static_cast<double>(sorted_.size());
}

const StreamSummary* GroupedSummary::find(const std::string& key) const {
  const auto it = groups.find(key);
  return it == groups.end() ? nullptr : &it->second;
}

std::vector<FootprintSample> footprint_snapshot(const trace::TraceBatch& trace,
                                                PageNumber page) {
  std::vector<FootprintSample> out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const trace::TraceRecord r = trace.record(i);
    if (addr::page_number(r.address) == page) {
      out.push_back(FootprintSample{r.arrival, addr::block_in_page(r.address)});
    }
  }
  return out;
}

bool hottest_page(const trace::TraceBatch& trace, PageNumber& page_out) {
  std::unordered_map<PageNumber, std::uint64_t> counts;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ++counts[addr::page_number(trace.addresses()[i])];
  }
  if (counts.empty()) return false;
  PageNumber best = 0;
  std::uint64_t best_count = 0;
  for (const auto& [page, count] : counts) {
    if (count > best_count || (count == best_count && page < best)) {
      best = page;
      best_count = count;
    }
  }
  page_out = best;
  return true;
}

OverlapResult overlap_rate(const trace::TraceBatch& trace,
                           std::uint64_t window) {
  // Group the per-page access sequences (block order preserved).
  std::unordered_map<PageNumber, std::vector<int>> sequences;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Address a = trace.addresses()[i];
    sequences[addr::page_number(a)].push_back(addr::block_in_page(a));
  }

  OverlapResult result;
  double overlap_sum = 0.0;
  for (auto& [page, seq] : sequences) {
    // Window size: the page's distinct-block count, per the Fig. 3 method
    // ("we determined the window size by counting the number of accessed
    // blocks in a page"), unless the caller fixed one.
    std::uint64_t w = window;
    if (w == 0) {
      std::unordered_set<int> distinct(seq.begin(), seq.end());
      w = distinct.size();
    }
    if (w == 0 || seq.size() < 2 * w) continue;  // needs two full windows

    ++result.pages_analyzed;
    PageBitmap prev;
    bool have_prev = false;
    for (std::size_t start = 0; start + w <= seq.size(); start += w) {
      PageBitmap cur;
      for (std::size_t i = start; i < start + w; ++i) cur.set(seq[i]);
      if (have_prev) {
        // |cur ∩ prev| / |cur|, exactly the paper's metric.
        overlap_sum += static_cast<double>(cur.common_with(prev)) /
                       static_cast<double>(cur.popcount());
        ++result.windows_compared;
      }
      prev = cur;
      have_prev = true;
    }
  }
  if (result.windows_compared > 0) {
    result.average_overlap =
        overlap_sum / static_cast<double>(result.windows_compared);
  }
  return result;
}

std::map<PageNumber, PageBitmap> page_bitmaps(const trace::TraceBatch& trace) {
  std::map<PageNumber, PageBitmap> bitmaps;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Address a = trace.addresses()[i];
    bitmaps[addr::page_number(a)].set(addr::block_in_page(a));
  }
  return bitmaps;
}

std::vector<double> learnable_neighbor_fraction(
    const trace::TraceBatch& trace,
    const std::vector<std::uint64_t>& distance_thresholds, int max_bit_diff) {
  const auto bitmaps = page_bitmaps(trace);
  // Flatten to sorted arrays for windowed neighbor scans.
  std::vector<PageNumber> pages;
  std::vector<PageBitmap> bms;
  pages.reserve(bitmaps.size());
  for (const auto& [page, bm] : bitmaps) {
    pages.push_back(page);
    bms.push_back(bm);
  }

  std::vector<double> fractions;
  fractions.reserve(distance_thresholds.size());
  for (const std::uint64_t dist : distance_thresholds) {
    std::uint64_t learnable = 0;
    for (std::size_t i = 0; i < pages.size(); ++i) {
      bool found = false;
      // Scan forward and backward while within the page-number distance.
      for (std::size_t j = i + 1; j < pages.size() && pages[j] - pages[i] <= dist;
           ++j) {
        if (bms[i].hamming_distance(bms[j]) <= max_bit_diff) {
          found = true;
          break;
        }
      }
      if (!found) {
        for (std::size_t j = i; j-- > 0 && pages[i] - pages[j] <= dist;) {
          if (bms[i].hamming_distance(bms[j]) <= max_bit_diff) {
            found = true;
            break;
          }
        }
      }
      learnable += found ? 1 : 0;
    }
    fractions.push_back(pages.empty() ? 0.0
                                      : static_cast<double>(learnable) /
                                            static_cast<double>(pages.size()));
  }
  return fractions;
}

}  // namespace planaria::analysis
