#include "trace/generator.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <variant>

#include "common/bitmap.hpp"
#include "trace/merge.hpp"

namespace planaria::trace {

namespace {

// Paces episodes so that `records` entries spread across `horizon` cycles:
// after an episode of n records the clock advances to keep the long-run rate,
// with jitter so arrivals do not beat against DRAM refresh periods.
class Pacer {
 public:
  explicit Pacer(const Pacing& pacing)
      : pacing_(pacing),
        mean_gap_(pacing.records == 0
                      ? 1.0
                      : static_cast<double>(pacing.horizon) /
                            static_cast<double>(pacing.records)),
        stretch_(pacing.burstiness > 0.0 ? 1.0 / (1.0 - pacing.burstiness)
                                         : 1.0) {}

  Cycle now() const { return now_; }

  /// Advances past one record inside a burst.
  void step_intra() { now_ += pacing_.intra_gap; }

  /// Advances the idle gap that follows an episode of `n` records. With
  /// burstiness b, a fraction b of gaps collapse to ~0 (records pile into a
  /// frame-style burst) and the remainder stretch by 1/(1-b), preserving the
  /// long-run rate while creating the queue spikes where speculative traffic
  /// actually hurts.
  void episode_gap(Rng& rng, std::uint64_t n) {
    if (pacing_.burstiness > 0.0 && rng.chance(pacing_.burstiness)) {
      now_ += 2;
      return;
    }
    const double target = mean_gap_ * static_cast<double>(n) * stretch_;
    const double jitter =
        1.0 + pacing_.gap_jitter * (2.0 * rng.next_double() - 1.0);
    double idle = target * jitter -
                  static_cast<double>(n) * static_cast<double>(pacing_.intra_gap);
    if (idle < 1.0) idle = 1.0;
    now_ += static_cast<Cycle>(idle);
  }

 private:
  Pacing pacing_;
  double mean_gap_;
  double stretch_;  ///< 1/(1-b) for burstiness b, else 1
  Cycle now_ = 0;
};

AccessType pick_type(Rng& rng, double write_fraction) {
  return rng.chance(write_fraction) ? AccessType::kWrite : AccessType::kRead;
}

/// Random footprint bitmap with `bits` set blocks out of 64. Footprints are
/// *chunky* — a few contiguous runs of blocks rather than uniform scatter —
/// matching how structures larger than one cache line lay out in a page.
/// The run structure is what gives offset/delta prefetchers (BOP, SPP) their
/// partial credit at the SC level; a snapshot prefetcher is indifferent to it.
PageBitmap random_footprint(Rng& rng, int bits) {
  PageBitmap bm;
  while (bm.popcount() < bits) {
    const int start = static_cast<int>(rng.next_below(kBlocksPerPage));
    const int run = static_cast<int>(rng.next_range(1, 4));
    for (int i = start; i < start + run && i < kBlocksPerPage; ++i) {
      if (bm.popcount() >= bits) break;
      bm.set(i);
    }
  }
  return bm;
}

/// One in-progress page visit: the snapshot's blocks in (shuffled) emission
/// order.
struct Visit {
  PageNumber page = 0;
  int blocks[kBlocksPerPage] = {};
  int count = 0;
  int next = 0;

  bool done() const { return next >= count; }
};

/// Refills `v` with a fresh visit of page `pn`.
void make_visit(Visit& v, PageNumber pn, const PageBitmap& footprint, Rng& rng,
                double order_entropy = 0.45) {
  v.page = pn;
  v.count = 0;
  v.next = 0;
  // Emission order: the footprint's maximal runs of consecutive blocks are
  // kept in ascending order internally but the *runs* are shuffled. This is
  // the paper's Observation 1: the overall order is non-deterministic (delta
  // sequences are unpredictable across runs), yet short sequential bursts
  // survive — which is why BOP/SPP retain partial accuracy at the SC.
  int runs[kBlocksPerPage][2];  // [start index in v.blocks, length]
  int run_count = 0;
  int prev = -2;
  footprint.for_each_set([&](int b) {
    if (b != prev + 1) {
      runs[run_count][0] = v.count;
      runs[run_count][1] = 0;
      ++run_count;
    }
    v.blocks[v.count++] = b;
    ++runs[run_count - 1][1];
    prev = b;
  });
  // Shuffle run order, then flatten.
  int order[kBlocksPerPage];
  for (int i = 0; i < run_count; ++i) order[i] = i;
  for (int i = run_count - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(order[i], order[j]);
  }
  int flat[kBlocksPerPage];
  int n = 0;
  for (int r = 0; r < run_count; ++r) {
    const int start = runs[order[r]][0];
    const int len = runs[order[r]][1];
    for (int k = 0; k < len; ++k) flat[n++] = v.blocks[start + k];
  }
  // Degrade sequentiality: each transposition breaks up to two adjacencies.
  // order_entropy ~0.45 leaves roughly half the sequential pairs intact,
  // which is the regime where delta prefetchers get partial (not full)
  // credit — the paper's SPP lands at a 10.8% AMAT gain, far from SLP's.
  const int swaps = static_cast<int>(n * order_entropy);
  for (int t = 0; t < swaps && n > 1; ++t) {
    const auto i = rng.next_below(static_cast<std::uint64_t>(n));
    const auto j = rng.next_below(static_cast<std::uint64_t>(n));
    std::swap(flat[i], flat[j]);
  }
  for (int i = 0; i < n; ++i) v.blocks[i] = flat[i];
}

// The four components as resumable pull sources: `next(rec)` produces the
// component's next record, or returns false once its budget is spent. A
// source makes exactly the RNG draws, in exactly the order, of the
// materializing loop it replaced — including the draws that follow a record
// (type pick, idle gap), which happen inside the pull that returns it — so
// the last pull leaves the RNG where the loop left it.

/// Emits a budget of records by interleaving up to kConcurrentVisits snapshot
/// visits, the way a multi-core SoC's traffic actually reaches the memory
/// bus: the aggregate record rate matches the pacing budget while each
/// individual page's visit stretches over concurrency x mean-gap cycles —
/// the latency-hiding window a snapshot prefetcher exploits. The owning
/// source supplies visits through `next_visit(Visit&)`.
class VisitInterleaver {
 public:
  VisitInterleaver(const Pacing& pacing, DeviceId device,
                   double write_fraction)
      : pacer_(pacing), left_(pacing.records), device_(device),
        write_fraction_(write_fraction) {}

  /// Opens the first kConcurrentVisits visits (before any record is pulled).
  template <typename NextVisit>
  void prime(NextVisit&& next_visit) {
    for (Visit& v : active_) next_visit(v);
  }

  template <typename NextVisit>
  bool next(TraceRecord& rec, Rng& rng, NextVisit&& next_visit) {
    if (left_ == 0) return false;
    for (;;) {
      Visit& v = active_[rng.next_below(kConcurrentVisits)];
      if (v.done()) {
        next_visit(v);
        continue;
      }
      rec = TraceRecord{addr::compose(v.page, v.blocks[v.next++]),
                        pacer_.now(), pick_type(rng, write_fraction_),
                        device_};
      pacer_.episode_gap(rng, 1);
      --left_;
      return true;
    }
  }

 private:
  static constexpr int kConcurrentVisits = 8;
  Visit active_[kConcurrentVisits];
  Pacer pacer_;
  std::uint64_t left_;
  DeviceId device_;
  double write_fraction_;
};

class FootprintSource {
 public:
  FootprintSource(const FootprintParams& params, const Pacing& pacing, Rng rng)
      : params_(checked(params)), rng_(rng),
        zipf_(static_cast<std::uint64_t>(params.hot_pages), params.zipf_s),
        visits_(pacing, params.device, params.write_fraction) {
    pages_.reserve(static_cast<std::size_t>(params_.hot_pages));
    for (int i = 0; i < params_.hot_pages; ++i) {
      // Related structures are allocated near each other: a fraction of
      // pages are "twins" of an earlier page — close in address space with a
      // nearly identical footprint. Twin distance is skewed toward small gaps
      // (cubic in a uniform variate), which produces Fig. 5's rising
      // learnable-neighbor curve; the rest are independent scattered pages.
      if (i > 0 && rng_.chance(params_.twin_fraction)) {
        const HotPage& base =
            pages_[rng_.next_below(static_cast<std::uint64_t>(i))];
        const double u = rng_.next_double();
        const auto dist = static_cast<PageNumber>(
            1 + (params_.twin_max_distance - 1) * u * u * u);
        const PageNumber pn =
            rng_.chance(0.5) ? base.pn + dist
                             : (base.pn > dist ? base.pn - dist : base.pn + dist);
        PageBitmap fp = base.footprint;
        for (int f = 0; f < params_.twin_flip_bits; ++f) {
          const int bit = static_cast<int>(rng_.next_below(kBlocksPerPage));
          if (fp.test(bit) && fp.popcount() > params_.footprint_min) {
            fp.clear(bit);
          } else {
            fp.set(bit);
          }
        }
        pages_.push_back(HotPage{pn, fp});
        continue;
      }
      const PageNumber pn =
          params_.base_page + rng_.next_below(params_.page_span);
      const int bits = static_cast<int>(
          rng_.next_range(params_.footprint_min, params_.footprint_max));
      pages_.push_back(HotPage{pn, random_footprint(rng_, bits)});
    }
    visits_.prime([this](Visit& v) { next_visit(v); });
  }

  bool next(TraceRecord& rec) {
    return visits_.next(rec, rng_, [this](Visit& v) { next_visit(v); });
  }
  const Rng& rng() const { return rng_; }

 private:
  struct HotPage {
    PageNumber pn;
    PageBitmap footprint;
  };

  static const FootprintParams& checked(const FootprintParams& params) {
    if (params.hot_pages <= 0 || params.footprint_min < 1 ||
        params.footprint_max > kBlocksPerPage ||
        params.footprint_min > params.footprint_max) {
      throw std::invalid_argument("generate_footprint: bad params");
    }
    return params;
  }

  void next_visit(Visit& v) {
    HotPage& page = pages_[zipf_(rng_)];
    // Program-phase drift: occasionally move one block of the snapshot. The
    // constituent stays >90% identical visit-to-visit, matching Fig. 4.
    if (rng_.chance(params_.mutate_p)) {
      const int victim = page.footprint.first_set();
      if (victim >= 0 && page.footprint.popcount() > params_.footprint_min) {
        page.footprint.clear(victim);
      }
      page.footprint.set(static_cast<int>(rng_.next_below(kBlocksPerPage)));
    }
    make_visit(v, page.pn, page.footprint, rng_, params_.order_entropy);
  }

  FootprintParams params_;
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<HotPage> pages_;
  VisitInterleaver visits_;
};

class NeighborSource {
 public:
  NeighborSource(const NeighborParams& params, const Pacing& pacing, Rng rng)
      : params_(checked(params)), rng_(rng),
        visits_(pacing, params.device, params.write_fraction) {
    clusters_.reserve(static_cast<std::size_t>(params_.clusters));
    for (int c = 0; c < params_.clusters; ++c) {
      clusters_.push_back(Cluster{
          params_.base_page + static_cast<PageNumber>(c) * params_.cluster_stride,
          random_footprint(rng_, params_.base_footprint),
          {}});
      clusters_.back().visited.reserve(
          static_cast<std::size_t>(params_.cluster_span));
    }
    visits_.prime([this](Visit& v) { next_visit(v); });
  }

  bool next(TraceRecord& rec) {
    return visits_.next(rec, rng_, [this](Visit& v) { next_visit(v); });
  }
  const Rng& rng() const { return rng_; }

 private:
  struct Cluster {
    PageNumber origin;
    PageBitmap base;
    std::vector<int> visited;  ///< page offsets already seen in this cluster
  };

  static const NeighborParams& checked(const NeighborParams& params) {
    if (params.clusters <= 0 || params.cluster_span <= 0 ||
        params.base_footprint < 1 || params.base_footprint > kBlocksPerPage ||
        params.perturb_bits < 0) {
      throw std::invalid_argument("generate_neighbor: bad params");
    }
    return params;
  }

  // Per-page perturbation must be *stable* (the same page always deviates
  // from the cluster base in the same bits), so derive it from a hash of the
  // page number rather than fresh randomness.
  PageBitmap perturbed(const Cluster& cl, int offset) const {
    PageBitmap bm = cl.base;
    std::uint64_t h = (cl.origin + static_cast<std::uint64_t>(offset)) *
                      0x9E3779B97F4A7C15ull;
    for (int i = 0; i < params_.perturb_bits; ++i) {
      h ^= h >> 29;
      h *= 0xBF58476D1CE4E5B9ull;
      const int bit = static_cast<int>(h % kBlocksPerPage);
      if (bm.test(bit)) {
        bm.clear(bit);
      } else {
        bm.set(bit);
      }
    }
    if (bm.empty()) bm.set(0);
    return bm;
  }

  void next_visit(Visit& v) {
    if (stay_left_ == 0) {
      current_ = rng_.next_below(clusters_.size());
      stay_left_ = params_.cluster_stay;
    }
    --stay_left_;
    Cluster& cl = clusters_[current_];
    int offset;
    const bool explore = cl.visited.empty() ||
                         (cl.visited.size() <
                              static_cast<std::size_t>(params_.cluster_span) &&
                          rng_.chance(params_.new_page_rate));
    if (explore) {
      offset = static_cast<int>(rng_.next_below(
          static_cast<std::uint64_t>(params_.cluster_span)));
      if (std::find(cl.visited.begin(), cl.visited.end(), offset) ==
          cl.visited.end()) {
        cl.visited.push_back(offset);
      }
    } else {
      offset = cl.visited[rng_.next_below(cl.visited.size())];
    }
    make_visit(v, cl.origin + static_cast<PageNumber>(offset),
               perturbed(cl, offset), rng_);
  }

  NeighborParams params_;
  Rng rng_;
  std::vector<Cluster> clusters_;
  std::size_t current_ = 0;
  int stay_left_ = 0;
  VisitInterleaver visits_;
};

class StreamSource {
 public:
  StreamSource(const StreamParams& params, const Pacing& pacing, Rng rng)
      : params_(checked(params)), rng_(rng), pacer_(pacing),
        left_(pacing.records) {
    cursors_.reserve(static_cast<std::size_t>(params_.streams));
    for (int s = 0; s < params_.streams; ++s) {
      cursors_.push_back(
          (params_.base_page + static_cast<PageNumber>(s) * params_.stream_stride)
          << kPageShift);
    }
  }

  /// One run = one episode: a random stream's cursor advances by `run`
  /// records at the intra-burst pace, then the idle gap follows.
  bool next(TraceRecord& rec) {
    if (left_ == 0) return false;
    if (run_left_ == 0) {
      cursor_ = rng_.next_below(cursors_.size());
      run_left_ = static_cast<std::uint64_t>(
          rng_.next_range(params_.run_min, params_.run_max));
      episode_ = 0;
    }
    Address& cursor = cursors_[cursor_];
    rec = TraceRecord{cursor, pacer_.now(),
                      pick_type(rng_, params_.write_fraction), params_.device};
    cursor += static_cast<Address>(params_.block_stride) * kBlockBytes;
    pacer_.step_intra();
    --left_;
    --run_left_;
    ++episode_;
    // A run cut short by the budget still closes its episode.
    if (run_left_ == 0 || left_ == 0) {
      pacer_.episode_gap(rng_, episode_);
      run_left_ = 0;
    }
    return true;
  }
  const Rng& rng() const { return rng_; }

 private:
  static const StreamParams& checked(const StreamParams& params) {
    if (params.streams <= 0 || params.run_min < 1 ||
        params.run_min > params.run_max || params.block_stride == 0) {
      throw std::invalid_argument("generate_stream: bad params");
    }
    return params;
  }

  StreamParams params_;
  Rng rng_;
  Pacer pacer_;
  std::uint64_t left_;
  std::vector<Address> cursors_;
  std::size_t cursor_ = 0;        ///< stream of the current run
  std::uint64_t run_left_ = 0;    ///< records left in the current run
  std::uint64_t episode_ = 0;     ///< records emitted in the current run
};

class IrregularSource {
 public:
  IrregularSource(const IrregularParams& params, const Pacing& pacing, Rng rng)
      : params_(checked(params)), rng_(rng), pacer_(pacing),
        left_(pacing.records) {}

  bool next(TraceRecord& rec) {
    if (left_ == 0) return false;
    if (blocks_left_ == 0) {
      // A pointer-chase dereference drags a handful of scattered lines of
      // one page through the SC, then moves on and never returns.
      page_ = params_.base_page + rng_.next_below(params_.page_span);
      blocks_left_ = static_cast<int>(
          rng_.next_range(params_.blocks_min, params_.blocks_max));
      touched_ = PageBitmap{};
    }
    int block;
    do {
      block = static_cast<int>(rng_.next_below(kBlocksPerPage));
    } while (touched_.test(block));
    touched_.set(block);
    rec = TraceRecord{addr::compose(page_, block), pacer_.now(),
                      pick_type(rng_, params_.write_fraction), params_.device};
    pacer_.episode_gap(rng_, 1);
    --left_;
    --blocks_left_;
    return true;
  }
  const Rng& rng() const { return rng_; }

 private:
  static const IrregularParams& checked(const IrregularParams& params) {
    if (params.page_span == 0 || params.blocks_min < 1 ||
        params.blocks_min > params.blocks_max ||
        params.blocks_max > kBlocksPerPage) {
      throw std::invalid_argument("generate_irregular: bad params");
    }
    return params;
  }

  IrregularParams params_;
  Rng rng_;
  Pacer pacer_;
  std::uint64_t left_;
  PageNumber page_ = 0;
  int blocks_left_ = 0;  ///< blocks left in the current page visit
  PageBitmap touched_;
};

/// Materializes one source: the public per-component generators. The
/// source draws from a copy of the caller's RNG, handed back once the source
/// is spent, so the caller's stream continues exactly where the generator's
/// last draw left it.
template <typename Source, typename Params>
TraceBatch drain(const Params& params, const Pacing& pacing, Rng& rng) {
  Source source(params, pacing, rng);
  TraceBatch out;
  out.reserve(pacing.records);
  TraceRecord rec;
  while (source.next(rec)) out.push_back(rec);
  rng = source.rng();
  return out;
}

using AnySource =
    std::variant<FootprintSource, NeighborSource, StreamSource, IrregularSource>;

/// The app's component sources, one per positive weight, in merge tie order.
std::vector<AnySource> make_sources(const AppProfile& app,
                                    std::uint64_t records) {
  if (records == 0) throw std::invalid_argument("generate_app_trace: 0 records");
  const double wsum = app.weight_footprint + app.weight_neighbor +
                      app.weight_stream + app.weight_irregular;
  if (wsum <= 0.0 ||
      std::min({app.weight_footprint, app.weight_neighbor, app.weight_stream,
                app.weight_irregular}) < 0.0) {
    throw std::invalid_argument("generate_app_trace: weights");
  }

  const Cycle horizon = records * app.mean_gap;
  // Floored per-stream budgets fall short of `records` by less than one
  // record per stream; the heaviest stream (first on ties) takes that
  // remainder so the merged trace has exactly `records` entries.
  enum { kFootprint, kNeighbor, kStream, kIrregular };
  const double weights[] = {app.weight_footprint, app.weight_neighbor,
                            app.weight_stream, app.weight_irregular};
  std::uint64_t budget[4] = {};
  std::uint64_t assigned = 0;
  int heaviest = 0;
  for (int i = 0; i < 4; ++i) {
    if (weights[i] <= 0.0) continue;
    budget[i] = static_cast<std::uint64_t>(static_cast<double>(records) *
                                           weights[i] / wsum);
    assigned += budget[i];
    if (weights[i] > weights[heaviest]) heaviest = i;
  }
  budget[heaviest] += records - assigned;

  // Each component draws from its own RNG seeded from app.seed, so sources
  // can be pulled in any interleaving. Footprint/neighbor visits are emitted
  // through the visit interleaver: the per-record pacing is entirely in
  // episode_gap(1), so their intra_gap is 0. Streams arrive denser
  // (DMA-style bursts). Source order is the merge's tie order.
  std::vector<AnySource> sources;
  sources.reserve(4);
  const double b = app.burstiness;
  if (app.weight_footprint > 0.0) {
    sources.emplace_back(std::in_place_type<FootprintSource>, app.footprint,
                         Pacing{budget[kFootprint], horizon, 0, 0.5, b},
                         Rng(app.seed * 4 + 1));
  }
  if (app.weight_neighbor > 0.0) {
    sources.emplace_back(std::in_place_type<NeighborSource>, app.neighbor,
                         Pacing{budget[kNeighbor], horizon, 0, 0.5, b},
                         Rng(app.seed * 4 + 2));
  }
  if (app.weight_stream > 0.0) {
    sources.emplace_back(std::in_place_type<StreamSource>, app.stream,
                         Pacing{budget[kStream], horizon, 6, 0.5, b},
                         Rng(app.seed * 4 + 3));
  }
  if (app.weight_irregular > 0.0) {
    sources.emplace_back(std::in_place_type<IrregularSource>, app.irregular,
                         Pacing{budget[kIrregular], horizon, 8, 0.5, b},
                         Rng(app.seed * 4 + 4));
  }
  return sources;
}

}  // namespace

TraceBatch generate_footprint(const FootprintParams& params,
                              const Pacing& pacing, Rng& rng) {
  return drain<FootprintSource>(params, pacing, rng);
}

TraceBatch generate_neighbor(const NeighborParams& params,
                             const Pacing& pacing, Rng& rng) {
  return drain<NeighborSource>(params, pacing, rng);
}

TraceBatch generate_stream(const StreamParams& params,
                           const Pacing& pacing, Rng& rng) {
  return drain<StreamSource>(params, pacing, rng);
}

TraceBatch generate_irregular(const IrregularParams& params,
                              const Pacing& pacing, Rng& rng) {
  return drain<IrregularSource>(params, pacing, rng);
}

/// Sources plus the merge over them. Heap-held by AppTraceStream, so the
/// merge's heads keep pointing into `chunks` when the stream moves.
struct AppTraceStream::State {
  State(const AppProfile& app, std::uint64_t records)
      : sources(make_sources(app, records)),
        chunks(sources.size()),
        merge(sources.size(), [this](std::size_t s) { return refill(s); }) {}

  /// Source s's next run of up to kMergeChunk records.
  std::span<const TraceRecord> refill(std::size_t s) {
    detail::MergeChunk& chunk = chunks[s];
    const std::size_t n = std::visit(
        [&chunk](auto& source) {
          std::size_t count = 0;
          while (count < chunk.size() && source.next(chunk[count])) ++count;
          return count;
        },
        sources[s]);
    return std::span<const TraceRecord>(chunk.data(), n);
  }

  std::vector<AnySource> sources;
  std::vector<detail::MergeChunk> chunks;
  detail::SourceMerge merge;
};

AppTraceStream::AppTraceStream(const AppProfile& app, std::uint64_t records)
    : state_(std::make_unique<State>(app, records)), remaining_(records) {}

AppTraceStream::~AppTraceStream() = default;
AppTraceStream::AppTraceStream(AppTraceStream&&) noexcept = default;
AppTraceStream& AppTraceStream::operator=(AppTraceStream&&) noexcept = default;

bool AppTraceStream::next(TraceBatch& chunk, std::size_t rows) {
  chunk.clear();
  if (remaining_ == 0 || rows == 0) return false;
  State& st = *state_;
  remaining_ -= st.merge.append(
      [&st](std::size_t s) { return st.refill(s); }, chunk, rows);
  return true;
}

TraceBatch generate_app_trace(const AppProfile& app, std::uint64_t records) {
  AppTraceStream stream(app, records);
  TraceBatch out = TraceBatch::with_capacity(records);
  stream.next(out, records);
  return out;
}

std::vector<TraceBatch> generate_app_traces(const std::vector<AppProfile>& apps,
                                            std::uint64_t records,
                                            common::ThreadPool* pool) {
  std::vector<TraceBatch> out(apps.size());
  common::for_each_ready(pool, apps.size(), [&](std::size_t i) {
    out[i] = generate_app_trace(apps[i], records);
  });
  return out;
}

}  // namespace planaria::trace
