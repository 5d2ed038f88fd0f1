// Full-system trace-driven simulator: 4 channels of {SC slice + memory-side
// prefetcher + LPDDR4 controller}, mirroring the paper's Figure 1 skeleton.
//
// Request flow per demand record:
//   1. The record's channel is derived from address bits [11:10] (static
//      segment interleave).
//   2. The channel's DRAM model advances to the arrival time; completed fills
//      install blocks into the SC slice and resolve waiting demand latencies.
//   3. The SC slice is probed. Hits cost sc_hit_latency; misses allocate an
//      MSHR-style in-flight entry and issue a DRAM demand read (reads), or
//      write around to DRAM (writes). A miss on a block already in flight
//      (e.g. covered by a still-airborne prefetch) piggybacks on that fill —
//      a "late prefetch" recovers part of the latency.
//   4. The prefetcher observes the access (learning always on) and may emit
//      prefetch requests, which are deduplicated against cache contents and
//      in-flight fills, then issued to DRAM at prefetch priority.
//
// AMAT is the mean latency of demand reads (hit latency or SC latency + DRAM
// service time). Writes are posted and excluded, as in standard AMAT
// accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cache/system_cache.hpp"
#include "common/block_map.hpp"
#include "common/small_vector.hpp"
#include "common/thread_pool.hpp"
#include "core/planaria.hpp"
#include "dram/channel.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/config.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/batch.hpp"
#include "trace/record.hpp"

namespace planaria::sim {

/// Everything a figure needs from one (app, prefetcher) run.
struct SimResult {
  std::string prefetcher;
  std::uint64_t demand_reads = 0;
  std::uint64_t demand_writes = 0;
  double amat_cycles = 0.0;        ///< mean demand-read latency (mem cycles)
  double sc_hit_rate = 0.0;        ///< demand-read hit rate of the SC
  double prefetch_accuracy = 0.0;
  double prefetch_coverage = 0.0;
  std::uint64_t prefetch_issued = 0;   ///< prefetch fills requested from DRAM
  std::uint64_t prefetch_dropped = 0;  ///< throttled by a saturated channel
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t dram_traffic_blocks = 0;  ///< total DRAM data bursts
  double dram_power_mw = 0.0;
  double sram_power_mw = 0.0;
  double total_power_mw = 0.0;     ///< memory-system power (DRAM + SC + meta)
  double ipc = 0.0;                ///< analytic core model (see CpuModelParams)
  Cycle elapsed = 0;
  std::uint64_t hits_on_slp = 0;   ///< Fig. 9 attribution
  std::uint64_t hits_on_tlp = 0;
  std::uint64_t hits_on_other_pf = 0;
  std::uint64_t pollution_misses = 0;
  std::uint64_t slp_issues = 0;    ///< coordinator decisions (Planaria only)
  std::uint64_t tlp_issues = 0;
  std::uint64_t late_prefetch_merges = 0;  ///< demands that caught an
                                           ///< airborne prefetch (timeliness)
  double data_bus_utilization = 0.0;  ///< busy data-bus cycles / elapsed,
                                      ///< averaged over channels
  std::uint64_t storage_bits = 0;  ///< metadata per channel summed over 4

  /// Applied fault-injection counts (all zero unless SimConfig::fault arms a
  /// class). The chaos audit cross-checks these against the contract layer's
  /// violation/recovery tallies; the same seed reproduces the same counts at
  /// any thread count.
  std::uint64_t fault_injected_total = 0;
  std::uint64_t fault_trace_corruptions = 0;
  std::uint64_t fault_slp_flips = 0;
  std::uint64_t fault_tlp_flips = 0;
  std::uint64_t fault_prefetch_drops = 0;
  std::uint64_t fault_prefetch_delays = 0;
  std::uint64_t fault_dram_stalls = 0;

  double traffic_overhead_vs(const SimResult& baseline) const;
  double amat_reduction_vs(const SimResult& baseline) const;
  double power_increase_vs(const SimResult& baseline) const;
  double ipc_gain_vs(const SimResult& baseline) const;

  /// Memberwise equality over every field above. This is the oracle the
  /// determinism gates compare against: the parallel tests, the throughput
  /// bench and the audit's replay/crash stages all require *bit* identity
  /// (doubles included), not approximate agreement.
  friend bool operator==(const SimResult&, const SimResult&) = default;

  /// Sweep cell persistence: a completed cell's result is written to disk and
  /// reloaded verbatim on restart. Doubles travel as IEEE-754 bit patterns,
  /// so a reloaded result compares equal (operator==) to the original.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);
};

using PrefetcherFactory =
    std::function<std::unique_ptr<prefetch::Prefetcher>(int channel)>;

/// Factory for the named sweep configurations.
PrefetcherFactory make_prefetcher_factory(PrefetcherKind kind,
                                          const core::PlanariaConfig& planaria = {},
                                          const prefetch::BopConfig& bop = {},
                                          const prefetch::SppConfig& spp = {});

class Simulator {
 public:
  Simulator(const SimConfig& config, PrefetcherFactory factory,
            std::string prefetcher_name);

  /// Feeds one demand record; records must arrive in non-decreasing time.
  void step(const trace::TraceRecord& record);

  /// Feeds records [begin, end) of a time-ordered columnar trace by
  /// pre-sharding them into kChannels per-channel record streams (channel =
  /// address bits [11:10]; no state crosses channels) and simulating each
  /// slice independently — on `pool` when one is supplied, serially in channel
  /// order otherwise. Because every channel sees exactly the subsequence it
  /// would have seen through step() and all accounting is kept per channel in
  /// integer cycles, the merged result is bit-identical to the serial
  /// per-record dispatch in every mode (see DESIGN.md §9). Feeding a trace in
  /// consecutive [begin, end) slices is bit-identical to feeding it whole, so
  /// chunked (checkpointed) execution uses the same call. An out-of-range
  /// span fires the contract and is ignored without touching any state.
  void run_sharded(const trace::TraceBatch& batch, std::size_t begin,
                   std::size_t end, common::ThreadPool* pool = nullptr);
  /// The whole batch: run_sharded(batch, 0, batch.size(), pool).
  void run_sharded(const trace::TraceBatch& batch,
                   common::ThreadPool* pool = nullptr);

  /// Drains all in-flight traffic and produces the aggregate result.
  /// Per-channel partials are merged in channel order, so the reduction is
  /// deterministic regardless of how the channels were executed.
  SimResult finish();

  /// Convenience: construct, run a whole trace front to back (sharded;
  /// parallel across channels when `pool` is non-null and has more than one
  /// lane), finish. Never checkpoints and reads no environment; crash-safe
  /// runs go through run_checkpointed (sim/checkpoint.hpp).
  static SimResult run(const SimConfig& config, PrefetcherFactory factory,
                       std::string prefetcher_name,
                       const trace::TraceBatch& batch,
                       common::ThreadPool* pool = nullptr);

  const cache::SystemCache& cache_slice(int channel) const;
  const prefetch::Prefetcher& prefetcher(int channel) const;
  /// Test hook: arms (or, with null, disarms) `channel`'s DRAM command log
  /// (dram::DramChannel::set_command_log).
  void set_dram_command_log(int channel, std::vector<dram::CommandRecord>* log);

  /// Checkpoint/restore (DESIGN.md §11). Captures mid-run state: the ingest
  /// clock and its fault stream, and per channel the SC slice, the prefetcher
  /// (virtual dispatch covers every kind), the DRAM controller, the channel's
  /// fault streams, the MSHR-style in-flight map (emitted sorted by block so
  /// the encoding is canonical) and the accounting partials. load_state
  /// expects a Simulator freshly built from the *same* SimConfig, factory and
  /// name; the prefetcher name is embedded and checked, and the caller-level
  /// envelope (sim/checkpoint.hpp) fingerprints the trace and the config. A
  /// throwing load leaves the object partially updated — discard it.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  struct InFlight {
    cache::FillSource source = cache::FillSource::kDemand;
    bool was_prefetch = false;  ///< issued speculatively
    /// Arrival times of merged demands. Nearly always 0 or 1 entries (a
    /// second demand to the same airborne block inside its service window is
    /// rare), so the storage is inline — no allocation on the merge path.
    common::SmallVector<Cycle, 2> demand_waiters;
  };

  /// Per-record config values hoisted out of the inner loop: one struct read
  /// per channel run instead of a config_ member load per access.
  struct HotParams {
    Cycle sc_hit_latency = 0;
    int max_prefetches_per_trigger = 0;
    Cycle prefetch_delay_cycles = 0;
    Cycle dram_stall_cycles = 0;
  };

  /// Per-channel accounting partials. Everything is an integer so the
  /// channel-order merge in finish() is exact: summing integer cycle counts
  /// is associative, unlike the floating-point running sum it replaces, which
  /// is what makes sharded execution bit-identical to per-record dispatch.
  struct Accounting {
    std::uint64_t demand_reads = 0;
    std::uint64_t demand_writes = 0;
    Cycle demand_read_latency_sum = 0;  ///< integer mem cycles
    std::uint64_t resolved_demand_reads = 0;
    std::uint64_t prefetch_issued = 0;
    std::uint64_t late_prefetch_merges = 0;
  };

  struct Channel {
    std::unique_ptr<cache::SystemCache> sc;
    std::unique_ptr<prefetch::Prefetcher> pf;
    std::unique_ptr<dram::DramChannel> dram;
    common::BlockMap<InFlight> in_flight;  ///< MSHR table, by local block
    Accounting acct;
    std::vector<prefetch::PrefetchRequest> scratch;  ///< per-channel: shards
                                                     ///< run concurrently
    /// Reused completion buffer for take_completions (hot-alloc: the sink
    /// overload ping-pongs this capacity with the channel's pending buffer).
    std::vector<dram::DramCompletion> done_scratch;
    /// This channel's records of the current run_sharded chunk, as indices
    /// relative to the chunk's first record, and the (index, arrival) pairs
    /// whose arrival admission changed, ascending. Members (not per-call
    /// locals) so their capacity is reused across chunks.
    std::vector<std::uint32_t> shard;
    std::vector<std::pair<std::uint32_t, Cycle>> shard_arrivals;
    /// Per-channel fault injector (null when no class is armed). Channel
    /// faults draw from a channel-indexed stream, so injection stays
    /// deterministic however the channels are scheduled.
    std::unique_ptr<fault::FaultInjector> fault;
  };

  /// Applies the armed trace-corruption fault to a record's `arrival`,
  /// enforces the global time-order contract, and clamps a regressed arrival
  /// back to the running maximum (the kRecover repair); returns the admitted
  /// arrival. Shared by step() and run_sharded() so the ingest decision
  /// stream is consumed identically in both paths.
  Cycle corrupt_and_admit(Cycle arrival);

  HotParams hot_params() const;

  /// Per-record pipeline of one channel; the prefetcher is reached through
  /// virtual dispatch (DESIGN.md §14).
  void process_completions(Channel& ch, const HotParams& hp);
  void handle_demand(Channel& ch, const trace::TraceRecord& record,
                     const HotParams& hp);
  void step_channel(Channel& ch, const trace::TraceRecord& record,
                    const HotParams& hp);
  /// Drains ch.shard, indices into `batch` from record `first` on, through
  /// step_channel.
  void run_channel_shard(Channel& ch, const trace::TraceBatch& batch,
                         std::size_t first);

  SimConfig config_;
  std::string name_;
  std::vector<Channel> channels_;

  /// Injector for the serial ingest pass (trace corruption); null when no
  /// class is armed.
  std::unique_ptr<fault::FaultInjector> ingest_fault_;

  Cycle last_arrival_ = 0;
  bool finished_ = false;
};

}  // namespace planaria::sim
