// Synthetic mobile-SoC memory trace generators.
//
// The paper evaluates on proprietary traces captured from a physical phone's
// memory bus. Those traces are not publicly available, so this module
// synthesizes streams with the *statistical structure* the paper measures and
// exploits:
//
//   * FootprintComponent  — Observation 1: a set of hot pages, each with a
//     stable footprint snapshot (a fixed subset of its 64 blocks) that is
//     revisited with long reuse distance and non-deterministic intra-snapshot
//     order. Slow per-visit mutation models program-phase drift and is the
//     knob behind the Fig. 4 overlap rate (> 80%).
//   * NeighborComponent   — Observation 2: clusters of address-adjacent pages
//     sharing a common footprint up to a few perturbed bits; new pages of a
//     cluster keep appearing over time, giving a transfer-learning prefetcher
//     its opportunity. The cluster span and perturbation bound are the knobs
//     behind Fig. 5's learnable-neighbor fractions.
//   * StreamComponent     — linear block runs crossing page boundaries (GPU
//     framebuffer/ISP style), the pattern classic offset/delta prefetchers
//     (BOP, SPP) are built for.
//   * IrregularComponent  — uniformly random single-block accesses (pointer
//     chasing already filtered by the CPU caches), pure noise that mistrains
//     aggressive prefetchers into wasted traffic.
//
// Each component produces an arrival-time-sorted stream of its own; an app
// profile mixes them by weight and merges them into one bus trace while they
// run, a caller-sized chunk at a time (AppTraceStream, DESIGN.md §18), which
// naturally interleaves agents the way a shared memory controller sees them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "trace/batch.hpp"

namespace planaria::trace {

/// Shared pacing parameters: a component receives a record budget and a time
/// horizon and paces itself with bursts + idle gaps to fill the horizon.
struct Pacing {
  std::uint64_t records = 0;   ///< how many records this component emits
  Cycle horizon = 0;           ///< total trace duration in cycles
  Cycle intra_gap = 4;         ///< cycles between records inside a burst
  double gap_jitter = 0.5;     ///< +/- fractional jitter on idle gaps
  double burstiness = 0.0;     ///< fraction of gaps collapsed to ~0 (frame-
                               ///< style bursts); the rest stretch to keep
                               ///< the same long-run rate
};

struct FootprintParams {
  int hot_pages = 512;            ///< distinct pages with stable snapshots
  PageNumber base_page = 0x10000; ///< region start
  PageNumber page_span = 1 << 18; ///< pages are scattered over this span
  int footprint_min = 16;         ///< min blocks in a snapshot (of 64)
  int footprint_max = 40;         ///< max blocks in a snapshot
  double zipf_s = 0.7;            ///< page popularity skew
  double mutate_p = 0.08;         ///< per-visit chance one footprint bit drifts
  double twin_fraction = 0.65;    ///< fraction of pages created as near-copies
                                  ///< of an earlier page (contiguous allocation
                                  ///< of related structures; feeds Fig. 5)
  int twin_max_distance = 64;     ///< twin page-number distance bound
  int twin_flip_bits = 2;         ///< footprint deviation of a twin
  double order_entropy = 0.35;    ///< fraction of emission order randomly
                                  ///< transposed: 0 = run-ordered (delta-
                                  ///< friendly), 1 = fully shuffled
  double write_fraction = 0.2;
  DeviceId device = DeviceId::kCpuBig;
};

struct NeighborParams {
  int clusters = 24;              ///< independent page clusters
  PageNumber base_page = 0x80000;
  PageNumber cluster_stride = 1 << 12;  ///< distance between cluster origins
  int cluster_span = 48;          ///< pages per cluster (<= TLP distance 64)
  int base_footprint = 28;        ///< blocks in the cluster's shared pattern
  int perturb_bits = 2;           ///< per-page deviation from the base pattern
                                  ///< (pairwise Hamming <= 4: learnable)
  double new_page_rate = 0.45;    ///< chance a visit lands on an unseen page
  int cluster_stay = 12;          ///< consecutive visits within one cluster
  double write_fraction = 0.15;
  DeviceId device = DeviceId::kGpu;
};

struct StreamParams {
  int streams = 8;                ///< concurrent linear streams
  PageNumber base_page = 0x200000;
  PageNumber stream_stride = 1 << 10;  ///< distance between stream origins
  int run_min = 64;               ///< blocks per run
  int run_max = 512;
  int block_stride = 1;           ///< +1 = pure sequential
  double write_fraction = 0.25;
  DeviceId device = DeviceId::kIsp;
};

struct IrregularParams {
  PageNumber base_page = 0x400000;
  PageNumber page_span = 1 << 14;  ///< large region, sparse reuse
  int blocks_min = 4;   ///< blocks touched per page visit (scattered over the
  int blocks_max = 6;   ///< whole page, so ~1 per channel: below the FT
                        ///< threshold, invisible to snapshot learning)
  double write_fraction = 0.1;
  DeviceId device = DeviceId::kDsp;
};

/// One component's stream on its own. Each call leaves `rng` exactly where
/// the component's last draw left it, draws after its last record included.
TraceBatch generate_footprint(const FootprintParams& params,
                              const Pacing& pacing, Rng& rng);
TraceBatch generate_neighbor(const NeighborParams& params,
                             const Pacing& pacing, Rng& rng);
TraceBatch generate_stream(const StreamParams& params, const Pacing& pacing,
                           Rng& rng);
TraceBatch generate_irregular(const IrregularParams& params,
                              const Pacing& pacing, Rng& rng);

/// A full application profile: component weights plus the per-component
/// parameters and overall intensity. See apps.hpp for the ten calibrated
/// instances standing in for the paper's Table 2 workloads.
struct AppProfile {
  std::string name;           ///< paper abbreviation, e.g. "HoK"
  std::string description;
  double weight_footprint = 0.55;
  double weight_neighbor = 0.15;
  double weight_stream = 0.15;
  double weight_irregular = 0.15;
  Cycle mean_gap = 24;        ///< average cycles between bus records
  double burstiness = 0.0;    ///< arrival burstiness (frame rendering spikes)
  FootprintParams footprint;
  NeighborParams neighbor;
  StreamParams stream;
  IrregularParams irregular;
  std::uint64_t seed = 1;
};

/// The merged bus trace of exactly `records` entries for `app`, produced a
/// chunk at a time in bounded memory (DESIGN.md §18). Concatenating its
/// chunks gives generate_app_trace(app, records) row for row, whatever chunk
/// sizes the caller picks. The constructor throws std::invalid_argument on
/// zero records, a negative weight or a non-positive weight sum. All RNG
/// state is derived locally from app.seed.
class AppTraceStream {
 public:
  AppTraceStream(const AppProfile& app, std::uint64_t records);
  ~AppTraceStream();
  AppTraceStream(AppTraceStream&&) noexcept;
  AppTraceStream& operator=(AppTraceStream&&) noexcept;

  /// Clears `chunk` and fills it with the next min(rows, remaining()) rows.
  /// Returns false, with the chunk empty, once the trace is spent or when
  /// rows == 0. A chunk keeps its capacity across calls.
  bool next(TraceBatch& chunk, std::size_t rows);

  std::uint64_t remaining() const { return remaining_; }

 private:
  struct State;
  std::unique_ptr<State> state_;
  std::uint64_t remaining_ = 0;
};

/// The whole trace of AppTraceStream(app, records), drained into one batch
/// with exact capacity. Same throws. Pure: concurrent calls are safe and the
/// output depends only on (app, records).
TraceBatch generate_app_trace(const AppProfile& app, std::uint64_t records);

/// Generates one trace per profile, in profile order, fanning the
/// per-profile generation out over `pool` when one is supplied (each profile
/// seeds its own RNGs, so the result is identical at any thread count).
std::vector<TraceBatch> generate_app_traces(const std::vector<AppProfile>& apps,
                                            std::uint64_t records,
                                            common::ThreadPool* pool = nullptr);

}  // namespace planaria::trace
