#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/contract.hpp"
#include "common/assert.hpp"
#include "core/coordinators.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/simple.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/spp.hpp"

namespace planaria::sim {

const char* prefetcher_kind_name(PrefetcherKind kind) {
  switch (kind) {
    case PrefetcherKind::kNone: return "none";
    case PrefetcherKind::kBop: return "bop";
    case PrefetcherKind::kSpp: return "spp";
    case PrefetcherKind::kSms: return "sms";
    case PrefetcherKind::kPlanaria: return "planaria";
    case PrefetcherKind::kPlanariaSlpOnly: return "planaria-slp";
    case PrefetcherKind::kPlanariaTlpOnly: return "planaria-tlp";
    case PrefetcherKind::kSerialComposite: return "serial";
    case PrefetcherKind::kParallelComposite: return "parallel";
    case PrefetcherKind::kNextLine: return "next-line";
    case PrefetcherKind::kStride: return "stride";
  }
  PLANARIA_UNREACHABLE();
}

PrefetcherKind prefetcher_kind_from_name(const std::string& name) {
  for (PrefetcherKind k : all_prefetcher_kinds()) {
    if (name == prefetcher_kind_name(k)) return k;
  }
  throw std::invalid_argument("unknown prefetcher kind: " + name);
}

/// Every registered kind, in sweep order; audit tooling iterates this.
const std::vector<PrefetcherKind>& all_prefetcher_kinds() {
  static const std::vector<PrefetcherKind> kinds = {
      PrefetcherKind::kNone,          PrefetcherKind::kBop,
      PrefetcherKind::kSpp,           PrefetcherKind::kSms,
      PrefetcherKind::kPlanaria,      PrefetcherKind::kPlanariaSlpOnly,
      PrefetcherKind::kPlanariaTlpOnly, PrefetcherKind::kSerialComposite,
      PrefetcherKind::kParallelComposite, PrefetcherKind::kNextLine,
      PrefetcherKind::kStride};
  return kinds;
}

PrefetcherFactory make_prefetcher_factory(PrefetcherKind kind,
                                          const core::PlanariaConfig& planaria,
                                          const prefetch::BopConfig& bop,
                                          const prefetch::SppConfig& spp) {
  switch (kind) {
    case PrefetcherKind::kNone:
      return [](int) { return std::make_unique<prefetch::NullPrefetcher>(); };
    case PrefetcherKind::kBop:
      return [bop](int) {
        return std::make_unique<prefetch::BestOffsetPrefetcher>(bop);
      };
    case PrefetcherKind::kSpp:
      return [spp](int) {
        return std::make_unique<prefetch::SignaturePathPrefetcher>(spp);
      };
    case PrefetcherKind::kSms:
      return [](int) { return std::make_unique<prefetch::SmsPrefetcher>(); };
    case PrefetcherKind::kPlanaria:
      return [planaria](int) {
        return std::make_unique<core::PlanariaPrefetcher>(planaria);
      };
    case PrefetcherKind::kPlanariaSlpOnly:
      return [planaria](int) {
        core::PlanariaConfig c = planaria;
        c.enable_tlp = false;
        c.enable_slp = true;
        return std::make_unique<core::PlanariaPrefetcher>(c);
      };
    case PrefetcherKind::kPlanariaTlpOnly:
      return [planaria](int) {
        core::PlanariaConfig c = planaria;
        c.enable_slp = false;
        c.enable_tlp = true;
        return std::make_unique<core::PlanariaPrefetcher>(c);
      };
    case PrefetcherKind::kSerialComposite:
      return [planaria](int) {
        core::SerialCoordinatorConfig c;
        c.slp = planaria.slp;
        c.tlp = planaria.tlp;
        return std::make_unique<core::SerialComposite>(c);
      };
    case PrefetcherKind::kParallelComposite:
      return [planaria](int) {
        core::ParallelCoordinatorConfig c;
        c.slp = planaria.slp;
        c.tlp = planaria.tlp;
        return std::make_unique<core::ParallelComposite>(c);
      };
    case PrefetcherKind::kNextLine:
      return [](int) { return std::make_unique<prefetch::NextLinePrefetcher>(); };
    case PrefetcherKind::kStride:
      return [](int) { return std::make_unique<prefetch::StridePrefetcher>(); };
  }
  PLANARIA_UNREACHABLE();
}

Simulator::Simulator(const SimConfig& config, PrefetcherFactory factory,
                     std::string prefetcher_name)
    : config_(config), name_(std::move(prefetcher_name)) {
  config_.validate();
  if (!factory) throw std::invalid_argument("simulator: null prefetcher factory");
  // Injectors exist only when a fault class is armed: a disabled plan leaves
  // every fault pointer null, so the zero-fault hot path pays one pointer
  // test per hook and stays bit-identical to the pre-fault pipeline.
  const bool faults_armed = config_.fault.any_enabled();
  if (faults_armed) {
    ingest_fault_ = std::make_unique<fault::FaultInjector>(
        config_.fault, fault::FaultInjector::kIngestStream);
  }
  channels_.reserve(kChannels);
  for (int c = 0; c < kChannels; ++c) {
    Channel ch;
    cache::CacheConfig slice = config_.cache;
    slice.seed = config_.cache.seed + static_cast<std::uint64_t>(c);
    ch.sc = std::make_unique<cache::SystemCache>(slice);
    ch.pf = factory(c);
    ch.dram = std::make_unique<dram::DramChannel>(config_.dram);
    if (faults_armed) {
      ch.fault = std::make_unique<fault::FaultInjector>(
          config_.fault, static_cast<std::uint64_t>(c));
      ch.pf->set_fault_injector(ch.fault.get());
    }
    channels_.push_back(std::move(ch));
  }
}

Simulator::HotParams Simulator::hot_params() const {
  return HotParams{config_.sc_hit_latency, config_.max_prefetches_per_trigger,
                   config_.fault.prefetch_delay_cycles,
                   config_.fault.dram_stall_cycles};
}

void Simulator::process_completions(Channel& ch, const HotParams& hp) {
  if (!ch.dram->has_completions()) return;  // common case: nothing landed
  ch.dram->take_completions(ch.done_scratch);
  for (const auto& done : ch.done_scratch) {
    if (done.is_write) continue;  // posted; nothing waits on write data
    const std::uint64_t block = done.tag;
    InFlight* hit = ch.in_flight.find(block);
    if (hit == nullptr) continue;  // e.g. forwarded writeback race
    InFlight& fly = *hit;

    // Resolve every demand that merged onto this fill.
    for (const Cycle waiter_arrival : fly.demand_waiters) {
      const Cycle dram_part =
          done.finish > waiter_arrival ? done.finish - waiter_arrival : 0;
      ch.acct.demand_read_latency_sum += hp.sc_hit_latency + dram_part;
      ++ch.acct.resolved_demand_reads;
    }

    // A prefetch that a demand caught up with no longer counts as
    // speculative for accounting: the demand was already charged the miss.
    const bool consumed = !fly.demand_waiters.empty();
    const cache::FillSource source =
        consumed ? cache::FillSource::kDemand : fly.source;
    const auto fill = ch.sc->fill(block, source);
    if (fill.has_writeback) {
      dram::DramRequest wb;
      wb.local_block = fill.writeback_block;
      wb.arrival = std::max(ch.dram->now(), done.finish);
      wb.is_write = true;
      wb.tag = fill.writeback_block;
      ch.dram->submit(wb);
    }
    ch.pf->on_fill(block, fly.source != cache::FillSource::kDemand,
                   done.finish);
    ch.in_flight.erase(block);
  }
}

void Simulator::handle_demand(Channel& ch, const trace::TraceRecord& record,
                              const HotParams& hp) {
  const std::uint64_t block = dram::AddressMapper::local_block(record.address);
  const auto result = ch.sc->access(block, record.type);

  if (record.type == AccessType::kRead) {
    ++ch.acct.demand_reads;
    if (result.hit) {
      ch.acct.demand_read_latency_sum += hp.sc_hit_latency;
      ++ch.acct.resolved_demand_reads;
    } else if (InFlight* fly = ch.in_flight.find(block); fly != nullptr) {
      // Merge with the airborne fill (hit under miss / late prefetch).
      if (fly->was_prefetch) ++ch.acct.late_prefetch_merges;
      fly->demand_waiters.push_back(record.arrival);
    } else {
      dram::DramRequest req;
      req.local_block = block;
      req.arrival = record.arrival;
      req.tag = block;
      ch.dram->submit(req);
      ch.in_flight.insert(
          block,
          InFlight{cache::FillSource::kDemand, false, {record.arrival}});
    }
  } else {
    ++ch.acct.demand_writes;
    if (!result.hit) {
      // Write-around: the burst goes to DRAM.
      dram::DramRequest req;
      req.local_block = block;
      req.arrival = record.arrival;
      req.is_write = true;
      req.tag = block;
      ch.dram->submit(req);
    }
  }

  // Prefetcher observes everything (learning is never gated).
  prefetch::DemandEvent event;
  event.local_block = block;
  event.page = addr::page_number(record.address);
  event.block_in_segment = addr::block_in_segment(record.address);
  event.now = record.arrival;
  event.type = record.type;
  event.device = record.device;
  event.sc_hit = result.hit;
  event.hit_was_prefetch = result.first_use_of_prefetch;

  ch.scratch.clear();
  ch.pf->on_demand(event, ch.scratch);

  int issued_this_trigger = 0;
  for (const auto& pf : ch.scratch) {
    if (issued_this_trigger >= hp.max_prefetches_per_trigger) break;
    const std::uint64_t target = pf.local_block;
    if (target == block) continue;
    if (ch.sc->contains(target)) continue;
    if (ch.in_flight.contains(target)) continue;
    // Fault hooks fire only for prefetches that survived deduplication — the
    // ones that would actually reach the channel. A dropped prefetch takes
    // the same exit as a saturated-queue drop (no issue accounting, no
    // in-flight entry); a delayed one issues late by a fixed interval.
    Cycle issue_at = record.arrival;
    if (ch.fault != nullptr) {
      if (ch.fault->roll(fault::FaultClass::kPrefetchDrop)) {
        ch.fault->record(fault::FaultClass::kPrefetchDrop);
        continue;
      }
      if (ch.fault->roll(fault::FaultClass::kPrefetchDelay)) {
        ch.fault->record(fault::FaultClass::kPrefetchDelay);
        issue_at += hp.prefetch_delay_cycles;
      }
    }
    dram::DramRequest req;
    req.local_block = target;
    req.arrival = issue_at;
    req.is_prefetch = true;
    req.tag = target;
    if (!ch.dram->submit(req)) continue;  // dropped: channel saturated
    ch.in_flight.insert(target, InFlight{pf.source, true, {}});
    ++ch.acct.prefetch_issued;
    ++issued_this_trigger;
  }
  // The per-trigger degree cap is the throttle the paper's traffic numbers
  // assume; overshooting it would silently inflate every prefetcher's issue
  // rate.
  PLANARIA_ENSURE_MSG(kCoordinatorExclusivity,
                      issued_this_trigger <= hp.max_prefetches_per_trigger,
                      "prefetch degree cap exceeded on one trigger");
}

void Simulator::step_channel(Channel& ch, const trace::TraceRecord& record,
                             const HotParams& hp) {
  if (ch.fault != nullptr && ch.fault->roll(fault::FaultClass::kDramStall)) {
    ch.dram->inject_stall(hp.dram_stall_cycles);
    ch.fault->record(fault::FaultClass::kDramStall);
  }
  ch.dram->advance(record.arrival);
  process_completions(ch, hp);
  handle_demand(ch, record, hp);
}

void Simulator::run_channel_shard(Channel& ch, const trace::TraceBatch& batch,
                                  std::size_t first) {
  const HotParams hp = hot_params();
  const Address* addresses = batch.addresses() + first;
  const Cycle* arrivals = batch.arrivals() + first;
  const std::uint8_t* meta = batch.meta() + first;
  auto changed = ch.shard_arrivals.cbegin();
  for (const std::uint32_t i : ch.shard) {
    Cycle arrival = arrivals[i];
    if (changed != ch.shard_arrivals.cend() && changed->first == i) {
      arrival = changed->second;
      ++changed;
    }
    const trace::TraceRecord rec{addresses[i], arrival,
                                 trace::TraceBatch::meta_type(meta[i]),
                                 trace::TraceBatch::meta_device(meta[i])};
    step_channel(ch, rec, hp);
  }
}

Cycle Simulator::corrupt_and_admit(Cycle arrival) {
  // The corruption regresses the arrival strictly below the running maximum
  // (next_below(last_arrival_) < last_arrival_), so every applied injection
  // fires the time-order contract exactly once — the chaos audit's
  // injected == violations equality depends on that. The first record (time
  // zero) has nothing to regress below and is exempt before the roll, keeping
  // the decision-stream consumption identical between step() and
  // run_sharded() paths.
  if (ingest_fault_ != nullptr && last_arrival_ > 0 &&
      ingest_fault_->roll(fault::FaultClass::kTraceCorruption)) {
    arrival = ingest_fault_->rng(fault::FaultClass::kTraceCorruption)
                  .next_below(last_arrival_);
    ingest_fault_->record(fault::FaultClass::kTraceCorruption);
  }
  PLANARIA_REQUIRE_MSG(kTimingMonotonicity, arrival >= last_arrival_,
                       "trace records must be time-ordered");
  // Recovery (kRecover mode reaches here; kAbort never returns from the
  // contract): clamp the regressed arrival to the running maximum so
  // downstream per-channel monotonicity holds by construction.
  if (arrival < last_arrival_) arrival = last_arrival_;
  last_arrival_ = arrival;
  return arrival;
}

void Simulator::step(const trace::TraceRecord& record) {
  PLANARIA_REQUIRE_MSG(kTimingMonotonicity, !finished_,
                       "step() after finish()");
  trace::TraceRecord rec = record;
  rec.arrival = corrupt_and_admit(rec.arrival);
  step_channel(
      channels_[static_cast<std::size_t>(addr::channel_of(rec.address))], rec,
      hot_params());
}

void Simulator::run_sharded(const trace::TraceBatch& batch, std::size_t begin,
                            std::size_t end, common::ThreadPool* pool) {
  PLANARIA_REQUIRE_MSG(kTimingMonotonicity, !finished_,
                       "run_sharded() after finish()");
  const bool in_range = begin <= end && end <= batch.size();
  PLANARIA_REQUIRE_MSG(kTimingMonotonicity, in_range,
                       "run_sharded() batch span out of range");
  // The contract returns under kCount/kRecover; the span is then dropped
  // whole, before any column is read or any simulator state changes.
  if (!in_range || begin == end) return;

  // The span runs in chunks of at most kShardChunk records, so the shard
  // memory is bounded whatever the span's length; consecutive chunks are
  // bit-identical to one call by the same argument that makes checkpointed
  // execution exact. Per chunk, one pass replaces the per-record
  // addr::channel_of dispatch: apply ingest faults and validate the global
  // time order once (corrupt_and_admit, the same serial admission step()
  // uses), then split the chunk into per-channel index shards. A shard
  // copies no record: it names rows of `batch`, plus the few arrivals that
  // admission changed (ingest faults and kRecover clamps). Each shard is a
  // subsequence of a non-decreasing (post-clamp) sequence, so per-channel
  // monotonicity is inherited.
  constexpr std::size_t kShardChunk = std::size_t{1} << 20;
  const Address* addresses = batch.addresses();
  const Cycle* arrivals = batch.arrivals();
  for (std::size_t first = begin; first < end; first += kShardChunk) {
    const std::size_t last = std::min(end, first + kShardChunk);
    for (auto& ch : channels_) {
      ch.shard.clear();
      ch.shard.reserve((last - first) / static_cast<std::size_t>(kChannels) +
                       1);
      ch.shard_arrivals.clear();
    }
    for (std::size_t i = first; i < last; ++i) {
      const Cycle arrival = corrupt_and_admit(arrivals[i]);
      Channel& ch =
          channels_[static_cast<std::size_t>(addr::channel_of(addresses[i]))];
      const auto index = static_cast<std::uint32_t>(i - first);
      ch.shard.push_back(index);
      if (arrival != arrivals[i]) {
        ch.shard_arrivals.emplace_back(index, arrival);
      }
    }
    // No state crosses channels, so the shards run concurrently on the pool.
    common::for_each_ready(pool, channels_.size(), [&](std::size_t c) {
      run_channel_shard(channels_[c], batch, first);
    });
  }
}

void Simulator::run_sharded(const trace::TraceBatch& batch,
                            common::ThreadPool* pool) {
  run_sharded(batch, 0, batch.size(), pool);
}

SimResult Simulator::finish() {
  PLANARIA_REQUIRE_MSG(kTimingMonotonicity, !finished_,
                       "finish() called twice");
  finished_ = true;

  SimResult r;
  r.prefetcher = name_;
  std::uint64_t demand_hits = 0;
  std::uint64_t demand_accesses = 0;
  std::uint64_t useful_pf = 0;
  std::uint64_t pf_fills = 0;
  double dram_energy_nj = 0.0;
  double sram_dynamic_nj = 0.0;
  const dram::PowerModel dram_power(config_.dram_power);

  for (auto& ch : channels_) {
    // Let every channel run to the same horizon so background power is
    // comparable, then drain stragglers.
    ch.dram->advance(last_arrival_);
    ch.dram->drain();
    process_completions(ch, hot_params());
    // Any still-unresolved in-flight entries would indicate lost completions.
    // Unordered visitation is safe: this is an order-independent check and
    // no value leaves the callback.
    ch.in_flight.for_each([](std::uint64_t, const InFlight& fly) {
      PLANARIA_ENSURE_MSG(kTimingMonotonicity, fly.demand_waiters.empty(),
                          "demand read never completed");
    });
    ch.in_flight.clear();

    const auto& cs = ch.sc->stats();
    demand_hits += cs.demand_hits;
    demand_accesses += cs.demand_accesses;
    useful_pf += cs.demand_hits_on_prefetch;
    pf_fills += cs.prefetch_fills;
    r.hits_on_slp += cs.hits_on_slp;
    r.hits_on_tlp += cs.hits_on_tlp;
    r.hits_on_other_pf += cs.hits_on_other_pf;
    r.pollution_misses += cs.pollution_misses;

    const auto& dc = ch.dram->counters();
    r.dram_reads += dc.reads + dc.forwarded_reads;
    r.dram_writes += dc.writes;
    r.prefetch_dropped += dc.prefetch_drops;
    r.elapsed = std::max(r.elapsed, dc.elapsed);
    if (dc.elapsed > 0) {
      r.data_bus_utilization += static_cast<double>(dc.busy_data_cycles) /
                                static_cast<double>(dc.elapsed) /
                                static_cast<double>(kChannels);
    }
    dram_energy_nj += dram_power.energy_nj(dc);

    sram_dynamic_nj +=
        static_cast<double>(cs.demand_accesses + cs.write_hits +
                            cs.write_misses + cs.prefetch_fills) *
        config_.sram_power.e_sc_access_nj;
    sram_dynamic_nj += static_cast<double>(cs.demand_accesses) *
                       config_.sram_power.meta_probes_per_access *
                       config_.sram_power.e_meta_probe_nj;

    if (const auto* planaria =
            dynamic_cast<const core::PlanariaPrefetcher*>(ch.pf.get());
        planaria != nullptr) {
      r.slp_issues += planaria->stats().slp_issues;
      r.tlp_issues += planaria->stats().tlp_issues;
    }
    r.storage_bits += ch.pf->storage_bits();

    if (ch.fault != nullptr) {
      r.fault_slp_flips += ch.fault->injected(fault::FaultClass::kSlpPatternFlip);
      r.fault_tlp_flips += ch.fault->injected(fault::FaultClass::kTlpPatternFlip);
      r.fault_prefetch_drops +=
          ch.fault->injected(fault::FaultClass::kPrefetchDrop);
      r.fault_prefetch_delays +=
          ch.fault->injected(fault::FaultClass::kPrefetchDelay);
      r.fault_dram_stalls += ch.fault->injected(fault::FaultClass::kDramStall);
    }
  }
  if (ingest_fault_ != nullptr) {
    r.fault_trace_corruptions =
        ingest_fault_->injected(fault::FaultClass::kTraceCorruption);
  }
  r.fault_injected_total = r.fault_trace_corruptions + r.fault_slp_flips +
                           r.fault_tlp_flips + r.fault_prefetch_drops +
                           r.fault_prefetch_delays + r.fault_dram_stalls;

  // Post-join reduction: channels may have been simulated concurrently, but
  // the partials are merged here in channel order after the horizon sync
  // above, and the demand accounting is integer (cycle sums, not floating
  // point), so the result is independent of execution order.
  Accounting total;
  for (const auto& ch : channels_) {
    total.demand_reads += ch.acct.demand_reads;
    total.demand_writes += ch.acct.demand_writes;
    total.demand_read_latency_sum += ch.acct.demand_read_latency_sum;
    total.resolved_demand_reads += ch.acct.resolved_demand_reads;
    total.prefetch_issued += ch.acct.prefetch_issued;
    total.late_prefetch_merges += ch.acct.late_prefetch_merges;
  }

  r.demand_reads = total.demand_reads;
  r.demand_writes = total.demand_writes;
  r.sc_hit_rate = demand_accesses == 0
                      ? 0.0
                      : static_cast<double>(demand_hits) /
                            static_cast<double>(demand_accesses);
  r.amat_cycles = total.resolved_demand_reads == 0
                      ? 0.0
                      : static_cast<double>(total.demand_read_latency_sum) /
                            static_cast<double>(total.resolved_demand_reads);
  r.prefetch_issued = total.prefetch_issued;
  r.late_prefetch_merges = total.late_prefetch_merges;
  r.prefetch_accuracy =
      pf_fills == 0 ? 0.0
                    : static_cast<double>(useful_pf) / static_cast<double>(pf_fills);
  const auto cov_denom = useful_pf + (demand_accesses - demand_hits);
  r.prefetch_coverage =
      cov_denom == 0 ? 0.0
                     : static_cast<double>(useful_pf) / static_cast<double>(cov_denom);
  r.dram_traffic_blocks = r.dram_reads + r.dram_writes;

  // Power: DRAM energy + SC/metadata dynamic energy over elapsed time, plus
  // SRAM leakage for the SC slices and the prefetcher metadata.
  const double seconds = static_cast<double>(r.elapsed) /
                         (config_.sram_power.clock_ghz * 1e9);
  if (seconds > 0.0) {
    r.dram_power_mw = dram_energy_nj * 1e-9 / seconds * 1e3;
    const double sc_mb = static_cast<double>(config_.cache.size_bytes) *
                         kChannels / (1024.0 * 1024.0);
    const double meta_mb = static_cast<double>(r.storage_bits) / 8.0 /
                           (1024.0 * 1024.0);
    const double leak_mw =
        (sc_mb + meta_mb) * config_.sram_power.leak_mw_per_mb;
    r.sram_power_mw = sram_dynamic_nj * 1e-9 / seconds * 1e3 + leak_mw;
    r.total_power_mw = r.dram_power_mw + r.sram_power_mw;
  }

  // Analytic IPC (see CpuModelParams): exec cycles + exposed memory stalls.
  const auto& cpu = config_.cpu;
  const double instr =
      static_cast<double>(demand_accesses) * cpu.instructions_per_access;
  if (instr > 0.0) {
    const double amat_cpu_cycles =
        r.amat_cycles * cpu.cpu_clock_ghz / cpu.mem_clock_ghz;
    const double cycles =
        instr * cpu.base_cpi + static_cast<double>(total.demand_reads) *
                                   amat_cpu_cycles * cpu.stall_overlap;
    r.ipc = instr / cycles;
  }
  return r;
}

SimResult Simulator::run(const SimConfig& config, PrefetcherFactory factory,
                         std::string prefetcher_name,
                         const trace::TraceBatch& batch,
                         common::ThreadPool* pool) {
  Simulator sim(config, std::move(factory), std::move(prefetcher_name));
  sim.run_sharded(batch, pool);
  return sim.finish();
}

void Simulator::save_state(snapshot::Writer& w) const {
  PLANARIA_REQUIRE_MSG(kTimingMonotonicity, !finished_,
                       "save_state() after finish()");
  w.tag(snapshot::tag4("SIMU"));
  w.str(name_);
  w.u64(last_arrival_);
  w.b(ingest_fault_ != nullptr);
  if (ingest_fault_ != nullptr) ingest_fault_->save_state(w);
  for (const Channel& ch : channels_) {
    ch.sc->save_state(w);
    ch.pf->save_state(w);
    ch.dram->save_state(w);
    w.b(ch.fault != nullptr);
    if (ch.fault != nullptr) ch.fault->save_state(w);
    // MSHR map, sorted by block so the encoding is canonical (keys are
    // collected from the unordered table, then sorted).
    std::vector<std::uint64_t> blocks;
    blocks.reserve(ch.in_flight.size());
    ch.in_flight.for_each(
        [&](std::uint64_t block, const InFlight&) { blocks.push_back(block); });
    std::sort(blocks.begin(), blocks.end());
    w.u64(static_cast<std::uint64_t>(blocks.size()));
    for (std::uint64_t block : blocks) {
      const InFlight& fly = *ch.in_flight.find(block);
      w.u64(block);
      w.u8(static_cast<std::uint8_t>(fly.source));
      w.b(fly.was_prefetch);
      w.u64(static_cast<std::uint64_t>(fly.demand_waiters.size()));
      for (Cycle arrival : fly.demand_waiters) w.u64(arrival);
    }
    w.u64(ch.acct.demand_reads);
    w.u64(ch.acct.demand_writes);
    w.u64(ch.acct.demand_read_latency_sum);
    w.u64(ch.acct.resolved_demand_reads);
    w.u64(ch.acct.prefetch_issued);
    w.u64(ch.acct.late_prefetch_merges);
  }
}

void Simulator::load_state(snapshot::Reader& r) {
  PLANARIA_REQUIRE_MSG(kTimingMonotonicity, !finished_,
                       "load_state() after finish()");
  r.expect_tag(snapshot::tag4("SIMU"));
  const std::string name = r.str();
  if (name != name_) {
    throw snapshot::SnapshotError("snapshot was taken by prefetcher '" + name +
                                  "', this simulator runs '" + name_ + "'");
  }
  last_arrival_ = r.u64();
  if (r.b() != (ingest_fault_ != nullptr)) {
    throw snapshot::SnapshotError(
        "fault arming differs between snapshot and configuration");
  }
  if (ingest_fault_ != nullptr) ingest_fault_->load_state(r);
  for (Channel& ch : channels_) {
    ch.sc->load_state(r);
    ch.pf->load_state(r);
    ch.dram->load_state(r);
    if (r.b() != (ch.fault != nullptr)) {
      throw snapshot::SnapshotError(
          "fault arming differs between snapshot and configuration");
    }
    if (ch.fault != nullptr) ch.fault->load_state(r);
    ch.in_flight.clear();
    const std::uint64_t count = r.u64();
    if (count > r.remaining() / 8) {
      throw snapshot::SnapshotError("in-flight map count exceeds payload");
    }
    std::uint64_t prev = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
      const std::uint64_t block = r.u64();
      if (n > 0 && block <= prev) {
        throw snapshot::SnapshotError("in-flight blocks out of order");
      }
      prev = block;
      InFlight fly;
      const std::uint8_t src = r.u8();
      if (src > static_cast<std::uint8_t>(cache::FillSource::kPrefetchOther)) {
        throw snapshot::SnapshotError("in-flight fill source out of range");
      }
      fly.source = static_cast<cache::FillSource>(src);
      fly.was_prefetch = r.b();
      const std::uint64_t waiters = r.u64();
      if (waiters > r.remaining() / 8) {
        throw snapshot::SnapshotError("in-flight waiter count exceeds payload");
      }
      fly.demand_waiters.reserve(static_cast<std::size_t>(waiters));
      for (std::uint64_t i = 0; i < waiters; ++i) {
        fly.demand_waiters.push_back(r.u64());
      }
      ch.in_flight.insert(block, std::move(fly));
    }
    ch.acct.demand_reads = r.u64();
    ch.acct.demand_writes = r.u64();
    ch.acct.demand_read_latency_sum = r.u64();
    ch.acct.resolved_demand_reads = r.u64();
    ch.acct.prefetch_issued = r.u64();
    ch.acct.late_prefetch_merges = r.u64();
  }
}

void SimResult::save_state(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("RSLT"));
  w.str(prefetcher);
  w.u64(demand_reads);
  w.u64(demand_writes);
  w.f64(amat_cycles);
  w.f64(sc_hit_rate);
  w.f64(prefetch_accuracy);
  w.f64(prefetch_coverage);
  w.u64(prefetch_issued);
  w.u64(prefetch_dropped);
  w.u64(dram_reads);
  w.u64(dram_writes);
  w.u64(dram_traffic_blocks);
  w.f64(dram_power_mw);
  w.f64(sram_power_mw);
  w.f64(total_power_mw);
  w.f64(ipc);
  w.u64(elapsed);
  w.u64(hits_on_slp);
  w.u64(hits_on_tlp);
  w.u64(hits_on_other_pf);
  w.u64(pollution_misses);
  w.u64(slp_issues);
  w.u64(tlp_issues);
  w.u64(late_prefetch_merges);
  w.f64(data_bus_utilization);
  w.u64(storage_bits);
  w.u64(fault_injected_total);
  w.u64(fault_trace_corruptions);
  w.u64(fault_slp_flips);
  w.u64(fault_tlp_flips);
  w.u64(fault_prefetch_drops);
  w.u64(fault_prefetch_delays);
  w.u64(fault_dram_stalls);
}

void SimResult::load_state(snapshot::Reader& r) {
  r.expect_tag(snapshot::tag4("RSLT"));
  prefetcher = r.str();
  demand_reads = r.u64();
  demand_writes = r.u64();
  amat_cycles = r.f64();
  sc_hit_rate = r.f64();
  prefetch_accuracy = r.f64();
  prefetch_coverage = r.f64();
  prefetch_issued = r.u64();
  prefetch_dropped = r.u64();
  dram_reads = r.u64();
  dram_writes = r.u64();
  dram_traffic_blocks = r.u64();
  dram_power_mw = r.f64();
  sram_power_mw = r.f64();
  total_power_mw = r.f64();
  ipc = r.f64();
  elapsed = r.u64();
  hits_on_slp = r.u64();
  hits_on_tlp = r.u64();
  hits_on_other_pf = r.u64();
  pollution_misses = r.u64();
  slp_issues = r.u64();
  tlp_issues = r.u64();
  late_prefetch_merges = r.u64();
  data_bus_utilization = r.f64();
  storage_bits = r.u64();
  fault_injected_total = r.u64();
  fault_trace_corruptions = r.u64();
  fault_slp_flips = r.u64();
  fault_tlp_flips = r.u64();
  fault_prefetch_drops = r.u64();
  fault_prefetch_delays = r.u64();
  fault_dram_stalls = r.u64();
}

const cache::SystemCache& Simulator::cache_slice(int channel) const {
  return *channels_.at(static_cast<std::size_t>(channel)).sc;
}

const prefetch::Prefetcher& Simulator::prefetcher(int channel) const {
  return *channels_.at(static_cast<std::size_t>(channel)).pf;
}

void Simulator::set_dram_command_log(int channel,
                                     std::vector<dram::CommandRecord>* log) {
  channels_.at(static_cast<std::size_t>(channel)).dram->set_command_log(log);
}

double SimResult::traffic_overhead_vs(const SimResult& baseline) const {
  if (baseline.dram_traffic_blocks == 0) return 0.0;
  return static_cast<double>(dram_traffic_blocks) /
             static_cast<double>(baseline.dram_traffic_blocks) -
         1.0;
}

double SimResult::amat_reduction_vs(const SimResult& baseline) const {
  if (baseline.amat_cycles <= 0.0) return 0.0;
  return 1.0 - amat_cycles / baseline.amat_cycles;
}

double SimResult::power_increase_vs(const SimResult& baseline) const {
  if (baseline.total_power_mw <= 0.0) return 0.0;
  return total_power_mw / baseline.total_power_mw - 1.0;
}

double SimResult::ipc_gain_vs(const SimResult& baseline) const {
  if (baseline.ipc <= 0.0) return 0.0;
  return ipc / baseline.ipc - 1.0;
}

}  // namespace planaria::sim
