#include "sim/experiment.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/block_map.hpp"
#include "common/env.hpp"

namespace planaria::sim {

std::uint64_t records_from_env(std::uint64_t fallback) {
  return common::parse_env_uint("PLANARIA_RECORDS",
                                std::getenv("PLANARIA_RECORDS"), 1, UINT64_MAX)
      .value_or(fallback);
}

ExperimentRunner::ExperimentRunner(SimConfig config, std::uint64_t records,
                                   std::size_t threads)
    : config_(config), records_(records) {
  config_.validate();
  if (records_ == 0) throw std::invalid_argument("experiment: records == 0");
  if (threads == 0) throw std::invalid_argument("experiment: threads == 0");
  if (threads > 1) pool_ = std::make_unique<common::ThreadPool>(threads);
  const CheckpointConfig env = CheckpointConfig::from_env();
  checkpoint_dir_ = env.dir;
  checkpoint_every_ = env.every;
}

std::uint64_t ExperimentRunner::config_digest() const {
  // Every knob a cell's SimResult depends on besides the trace. A field added
  // to one of these configs belongs here too; otherwise changing it would
  // reload cells simulated under its old value.
  snapshot::Writer w;
  const cache::CacheConfig& cache = config_.cache;
  w.u64(cache.size_bytes);
  w.i64(cache.ways);
  w.i64(cache.block_bytes);
  w.u8(static_cast<std::uint8_t>(cache.replacement));
  w.u64(cache.seed);
  const dram::TimingConfig& t = config_.dram.timing;
  for (const int v : {t.tRAS, t.tRCD, t.tRRD, t.tRC, t.tRP, t.tCCD, t.tRTP,
                      t.tWTR, t.tWR, t.tRTRS, t.tRFC, t.tFAW, t.tCKE, t.tXP,
                      t.tCMD, t.burst_length, t.tCL, t.tCWL, t.tREFI,
                      t.tRFCpb}) {
    w.i64(v);
  }
  const dram::GeometryConfig& g = config_.dram.geometry;
  for (const int v : {g.channels, g.ranks, g.banks, g.rows, g.blocks_per_row}) {
    w.i64(v);
  }
  const dram::ControllerConfig& c = config_.dram.controller;
  for (const int v : {c.read_queue_depth, c.write_queue_depth,
                      c.write_drain_high, c.write_drain_low,
                      c.max_postponed_refreshes, c.powerdown_idle_threshold}) {
    w.i64(v);
  }
  w.b(c.per_bank_refresh);
  const dram::PowerParams& p = config_.dram_power;
  for (const double v : {p.e_activate_nj, p.e_read_nj, p.e_write_nj, p.e_io_nj,
                         p.e_refresh_nj, p.p_background_mw, p.p_powerdown_mw,
                         p.clock_ghz}) {
    w.f64(v);
  }
  const SramPowerParams& sram = config_.sram_power;
  for (const double v : {sram.e_sc_access_nj, sram.e_meta_probe_nj,
                         sram.meta_probes_per_access, sram.leak_mw_per_mb,
                         sram.clock_ghz}) {
    w.f64(v);
  }
  const CpuModelParams& cpu = config_.cpu;
  for (const double v : {cpu.instructions_per_access, cpu.base_cpi,
                         cpu.stall_overlap, cpu.cpu_clock_ghz,
                         cpu.mem_clock_ghz}) {
    w.f64(v);
  }
  w.u64(config_.sc_hit_latency);
  w.i64(config_.max_prefetches_per_trigger);
  const fault::FaultPlan& fault = config_.fault;
  w.u64(fault.seed);
  for (const double rate : fault.rate) w.f64(rate);
  w.u64(fault.dram_stall_cycles);
  w.u64(fault.prefetch_delay_cycles);

  const core::SlpConfig& slp = planaria_.slp;
  for (const int v : {slp.ft_sets, slp.ft_ways, slp.at_sets, slp.at_ways,
                      slp.pt_sets, slp.pt_ways, slp.promote_threshold}) {
    w.i64(v);
  }
  w.u64(slp.at_timeout);
  w.u64(slp.sweep_interval);
  w.i64(planaria_.tlp.rpt_entries);
  w.u64(planaria_.tlp.distance_threshold);
  w.i64(planaria_.tlp.min_common_bits);
  w.b(planaria_.enable_slp);
  w.b(planaria_.enable_tlp);
  for (const int v : {bop_.score_max, bop_.round_max, bop_.bad_score,
                      bop_.rr_entries, bop_.degree}) {
    w.i64(v);
  }
  for (const int v : {spp_.st_entries, spp_.pt_entries, spp_.deltas_per_entry,
                      spp_.counter_max, spp_.max_lookahead, spp_.ghr_entries}) {
    w.i64(v);
  }
  w.f64(spp_.fill_threshold);
  w.f64(spp_.global_accuracy);

  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a, 64-bit
  for (const std::uint8_t byte : w.buffer()) {
    h ^= byte;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t ExperimentRunner::CellKey::snapshot_key() const {
  return trace_fingerprint ^ common::mix_block(config_digest);
}

std::string ExperimentRunner::cell_path(const std::string& app,
                                        const char* kind) const {
  return checkpoint_dir_ + "/cell_" + app + "_" + kind + ".result";
}

bool ExperimentRunner::try_load_cell(const std::string& app, const char* kind,
                                     const CellKey& key, SimResult& out) const {
  std::error_code ec;
  if (!std::filesystem::exists(cell_path(app, kind), ec)) return false;
  try {
    const auto payload = snapshot::read_file(cell_path(app, kind));
    snapshot::Reader r(payload);
    r.expect_tag(snapshot::tag4("CELL"));
    if (r.u64() != records_ || r.str() != app || r.str() != kind ||
        r.u64() != key.config_digest || r.u64() != key.trace_fingerprint) {
      return false;  // written for another configuration or trace: rerun
    }
    SimResult result;
    result.load_state(r);
    r.require_end();
    if (result.prefetcher != kind) return false;
    out = result;
    return true;
  } catch (const snapshot::SnapshotError&) {
    return false;  // corrupt/mismatched cell file: rerun the cell
  }
}

void ExperimentRunner::store_cell(const std::string& app, const char* kind,
                                  const CellKey& key,
                                  const SimResult& result) const {
  snapshot::Writer w;
  w.tag(snapshot::tag4("CELL"));
  w.u64(records_);
  w.str(app);
  w.str(kind);
  w.u64(key.config_digest);
  w.u64(key.trace_fingerprint);
  result.save_state(w);
  std::error_code ec;
  std::filesystem::create_directories(checkpoint_dir_, ec);  // best effort
  snapshot::write_file(cell_path(app, kind), w.buffer());
  // The cell is done; its mid-run snapshots are dead weight now, and left
  // behind they would resume the next cell under this label even when that
  // cell runs another configuration.
  CheckpointConfig ckpt;
  ckpt.dir = checkpoint_dir_;
  ckpt.label = std::string("cell_") + app + "_" + kind;
  std::filesystem::remove(ckpt.current_path(), ec);
  std::filesystem::remove(ckpt.prev_path(), ec);
}

SimResult ExperimentRunner::run_cell(const std::string& app,
                                     PrefetcherKind kind,
                                     const PrefetcherFactory& factory,
                                     const CellKey& key, bool verbose) {
  const char* kind_name = prefetcher_kind_name(kind);
  // Restarted sweep: a completed cell's persisted result is reloaded
  // verbatim (bit-identical by the snapshot round-trip guarantee) instead of
  // re-simulating; anything unreadable or mismatched falls through to a
  // fresh run.
  const bool persist = !checkpoint_dir_.empty();
  SimResult result;
  if (persist && try_load_cell(app, kind_name, key, result)) {
    if (verbose) {
      std::fprintf(stderr, "  restored %s / %s from checkpoint\n",
                   app.c_str(), kind_name);
    }
    return result;
  }
  if (verbose) {
    std::fprintf(stderr, "  running %s / %s...\n", app.c_str(), kind_name);
  }
  // Each cell checkpoints under its own label so concurrent cells on the
  // pool never rotate each other's snapshots; it resumes from its newest
  // intact one.
  CheckpointConfig ckpt;
  if (persist && checkpoint_every_ > 0) {
    ckpt = {checkpoint_dir_, checkpoint_every_,
            std::string("cell_") + app + "_" + kind_name};
  }
  result = run_checkpointed(config_, factory, kind_name,
                            trace::app_by_name(app), records_,
                            key.snapshot_key(), ckpt, pool_.get());
  if (persist) store_cell(app, kind_name, key, result);
  return result;
}

ExperimentRunner::CellKey ExperimentRunner::cell_key(
    const std::string& app) const {
  if (checkpoint_dir_.empty()) return {};
  return {config_digest(),
          trace_fingerprint(trace::app_by_name(app), records_)};
}

std::vector<SimResult> ExperimentRunner::run(
    const std::string& app, const std::vector<PrefetcherKind>& kinds) {
  const CellKey key = cell_key(app);
  std::vector<SimResult> results(kinds.size());
  common::for_each_ready(pool_.get(), kinds.size(), [&](std::size_t k) {
    results[k] = run_cell(app, kinds[k],
                          make_prefetcher_factory(kinds[k], planaria_, bop_,
                                                  spp_),
                          key, false);
  });
  return results;
}

std::map<std::string, std::map<std::string, SimResult>> ExperimentRunner::sweep(
    const std::vector<PrefetcherKind>& kinds, bool verbose,
    std::vector<FailureReport>* failures) {
  const auto apps = trace::app_names();

  // Factories depend only on (kind, configs): build each once per sweep
  // instead of once per cell, and share them read-only across the grid.
  std::vector<PrefetcherFactory> factories;
  factories.reserve(kinds.size());
  for (PrefetcherKind kind : kinds) {
    factories.push_back(make_prefetcher_factory(kind, planaria_, bop_, spp_));
  }

  // Configs may change between sweeps (ablation benches), so the persisted
  // cells' key is taken per sweep: one fingerprint pass per app, not per
  // cell.
  std::vector<CellKey> keys(apps.size());
  common::for_each_ready(pool_.get(), apps.size(),
                         [&](std::size_t a) { keys[a] = cell_key(apps[a]); });

  // Flatten the grid so the pool can claim cells; results land in a
  // preallocated slot per cell, which keeps the output independent of
  // completion order.
  std::vector<SimResult> results(apps.size() * kinds.size());
  const auto attempt_one = [&](std::size_t i) {
    const std::size_t a = i / kinds.size();
    const std::size_t k = i % kinds.size();
    results[i] = run_cell(apps[a], kinds[k], factories[k], keys[a], verbose);
  };
  if (failures == nullptr) {
    // Fast path: the first cell exception propagates.
    common::for_each_ready(pool_.get(), results.size(), attempt_one);
  } else {
    // Isolated mode: bounded retry. Each round re-runs the cells that failed
    // the last one, from a fresh stream, over the pool; a cell that fails
    // kMaxAttempts times keeps its slot default-constructed and files one
    // FailureReport. Error slots are per cell (one writer each, never a
    // shared push from pooled tasks) and reports are filed in cell order
    // after the last round, so they are deterministic too.
    constexpr int kMaxAttempts = 3;
    std::vector<std::string> errors(results.size());
    std::vector<std::uint8_t> failed(results.size(), 0);
    const auto run_isolated = [&](std::size_t i) {
      try {
        attempt_one(i);
        failed[i] = 0;
      } catch (const std::exception& e) {
        failed[i] = 1;
        errors[i] = e.what();
      }
    };
    std::vector<std::size_t> pending(results.size());
    for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;
    for (int attempt = 1; attempt <= kMaxAttempts && !pending.empty();
         ++attempt) {
      common::for_each_ready(pool_.get(), pending.size(), [&](std::size_t j) {
        run_isolated(pending[j]);
      });
      std::erase_if(pending, [&](std::size_t i) { return failed[i] == 0; });
    }
    for (const std::size_t i : pending) {
      failures->push_back({apps[i / kinds.size()],
                           prefetcher_kind_name(kinds[i % kinds.size()]),
                           kMaxAttempts, errors[i]});
    }
  }

  std::map<std::string, std::map<std::string, SimResult>> out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& per_app = out[apps[i / kinds.size()]];
    per_app.try_emplace(prefetcher_kind_name(kinds[i % kinds.size()]),
                        std::move(results[i]));
  }
  return out;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double geomean_ratio(const std::vector<double>& ratios) {
  if (ratios.empty()) return 0.0;
  double log_sum = 0.0;
  for (double r : ratios) {
    if (r <= 0.0) return 0.0;
    log_sum += std::log(r);
  }
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

}  // namespace planaria::sim
