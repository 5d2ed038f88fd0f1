// The traced run: per-layer metrics measured from outside the library.
//
// Every span is taken by this file around a public call it makes: trace
// generation, the PLTB write + map, the Simulator constructor, run_sharded,
// save_state/load_state, write_checkpoint, finish and SessionServer::tick.
// Prefetcher on_demand/on_fill are timed by a decorator Prefetcher injected
// through the public PrefetcherFactory, and one cell's recorded access/fill
// stream is replayed through SystemCache and DramChannel directly. Spans are
// accumulated in memory and reported at the end.
//
// Gates (each failure counts as a failed op):
//   * every traced SimResult equals the untraced one except slp_issues and
//     tlp_issues, which Simulator::finish reads through a dynamic_cast the
//     decorator hides (those two fields are taken from the untraced run);
//   * a snapshot decoded into a fresh Simulator re-encodes to the same bytes;
//   * the replay reproduces every recorded sc_hit bit, the recorded fill
//     order, and the cell's demand_reads, dram_reads, dram_writes and
//     prefetch_issued;
//   * on serve_fleet, every session replayed outside the server equals the
//     server's outcome.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "cache/system_cache.hpp"
#include "common/types.hpp"
#include "dram/channel.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/apps.hpp"
#include "trace/io.hpp"

namespace perfbench {

namespace {

namespace cache = planaria::cache;
namespace dram = planaria::dram;
namespace prefetch = planaria::prefetch;
namespace snapshot = planaria::snapshot;
using planaria::AccessType;
using planaria::Cycle;

/// Sum and count of one span kind.
struct Acc {
  std::int64_t ns = 0;
  std::uint64_t n = 0;
  void add(std::int64_t d) {
    ns += d;
    ++n;
  }
  void merge(const Acc& o) {
    ns += o.ns;
    n += o.n;
  }
  double mean() const { return n == 0 ? 0.0 : static_cast<double>(ns) / n; }
};

/// One channel's prefetcher-visible event stream, for the replay.
struct Recording {
  struct Event {
    std::uint64_t block = 0;
    Cycle now = 0;
    std::uint32_t emit_begin = 0;
    std::uint32_t emit_count = 0;
    bool is_fill = false;
    bool write = false;
    bool sc_hit = false;
    bool hit_was_prefetch = false;
    bool was_prefetch = false;  ///< fills only
  };
  std::vector<Event> events;
  std::vector<prefetch::PrefetchRequest> emitted;
};

/// Per-channel decorator counters.
struct PfStats {
  Acc demand;
  Acc fill;
  std::uint64_t emitted = 0;
};

/// Times on_demand/on_fill of the wrapped prefetcher and, when a recording
/// is attached, logs the stream. Everything else forwards.
class TracedPrefetcher final : public prefetch::Prefetcher {
 public:
  TracedPrefetcher(std::unique_ptr<prefetch::Prefetcher> inner,
                   PfStats* stats, Recording* rec)
      : inner_(std::move(inner)), stats_(stats), rec_(rec) {}

  void on_demand(const prefetch::DemandEvent& event,
                 std::vector<prefetch::PrefetchRequest>& out) override {
    const std::size_t before = out.size();
    const auto t0 = Clock::now();
    inner_->on_demand(event, out);
    stats_->demand.add(ns_between(t0, Clock::now()));
    stats_->emitted += out.size() - before;
    if (rec_ != nullptr) {
      Recording::Event e;
      e.block = event.local_block;
      e.now = event.now;
      e.emit_begin = static_cast<std::uint32_t>(rec_->emitted.size());
      e.emit_count = static_cast<std::uint32_t>(out.size() - before);
      e.write = event.type == AccessType::kWrite;
      e.sc_hit = event.sc_hit;
      e.hit_was_prefetch = event.hit_was_prefetch;
      rec_->emitted.insert(rec_->emitted.end(), out.begin() + before,
                           out.end());
      rec_->events.push_back(e);
    }
  }

  void on_fill(std::uint64_t local_block, bool was_prefetch,
               Cycle now) override {
    const auto t0 = Clock::now();
    inner_->on_fill(local_block, was_prefetch, now);
    stats_->fill.add(ns_between(t0, Clock::now()));
    if (rec_ != nullptr) {
      Recording::Event e;
      e.block = local_block;
      e.now = now;
      e.is_fill = true;
      e.was_prefetch = was_prefetch;
      rec_->events.push_back(e);
    }
  }

  const char* name() const override { return inner_->name(); }
  std::uint64_t storage_bits() const override { return inner_->storage_bits(); }
  void set_fault_injector(planaria::fault::FaultInjector* f) override {
    inner_->set_fault_injector(f);
  }
  void save_state(snapshot::Writer& w) const override { inner_->save_state(w); }
  void load_state(snapshot::Reader& r) override { inner_->load_state(r); }

 private:
  std::unique_ptr<prefetch::Prefetcher> inner_;
  PfStats* stats_;
  Recording* rec_;
};

/// Spans of one traced cell.
struct CellTrace {
  sim::SimResult result;
  std::array<PfStats, planaria::kChannels> pf{};
  Acc build, run, finish, encode, decode, ckpt;
  std::int64_t pf_ns_in_run = 0;  ///< decorator spans inside run_sharded
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t records = 0;
  bool snapshot_ok = true;

  PfStats pf_total() const {
    PfStats t;
    for (const auto& s : pf) {
      t.demand.merge(s.demand);
      t.fill.merge(s.fill);
      t.emitted += s.emitted;
    }
    return t;
  }
};

CellTrace traced_cell(const trace::TraceBatch& batch, sim::PrefetcherKind kind,
                      const std::string& ckpt_dir, const std::string& label,
                      std::array<Recording, planaria::kChannels>* rec) {
  CellTrace ct;
  ct.records = batch.size();
  const sim::SimConfig cfg;
  const char* name = sim::prefetcher_kind_name(kind);
  const sim::PrefetcherFactory inner = sim::make_prefetcher_factory(kind);
  sim::PrefetcherFactory wrapped = [&](int c) -> std::unique_ptr<prefetch::Prefetcher> {
    return std::make_unique<TracedPrefetcher>(
        inner(c), &ct.pf[static_cast<std::size_t>(c)],
        rec == nullptr ? nullptr : &(*rec)[static_cast<std::size_t>(c)]);
  };

  auto t0 = Clock::now();
  sim::Simulator s(cfg, wrapped, name);
  auto t1 = Clock::now();
  ct.build.add(ns_between(t0, t1));

  s.run_sharded(batch, nullptr);
  t0 = Clock::now();
  ct.run.add(ns_between(t1, t0));
  const PfStats in_run = ct.pf_total();
  ct.pf_ns_in_run = in_run.demand.ns + in_run.fill.ns;

  snapshot::Writer w;
  t0 = Clock::now();
  s.save_state(w);
  ct.encode.add(ns_between(t0, Clock::now()));
  ct.snapshot_bytes = w.buffer().size();

  sim::Simulator restored(cfg, inner, name);
  snapshot::Reader r(w.buffer());
  t0 = Clock::now();
  restored.load_state(r);
  ct.decode.add(ns_between(t0, Clock::now()));
  snapshot::Writer again;
  restored.save_state(again);
  ct.snapshot_ok = again.buffer() == w.buffer();

  sim::CheckpointConfig ck;
  ck.dir = ckpt_dir;
  ck.every = batch.size();
  ck.label = label;
  const std::uint64_t fp = sim::trace_fingerprint(batch);
  t0 = Clock::now();
  sim::write_checkpoint(s, ck, batch.size(), fp);
  ct.ckpt.add(ns_between(t0, Clock::now()));

  t0 = Clock::now();
  ct.result = s.finish();
  ct.finish.add(ns_between(t0, Clock::now()));
  return ct;
}

/// The traced SimResult with the two fields the decorator hides taken from
/// the untraced run.
bool matches_untraced(sim::SimResult traced, const sim::SimResult& plain) {
  traced.slp_issues = plain.slp_issues;
  traced.tlp_issues = plain.tlp_issues;
  return traced == plain;
}

// ------------------------------------------------------------------ replay

struct ReplayStats {
  Acc access, fill, dram;
  std::uint64_t demand_records = 0;
  std::uint64_t requests = 0;
  std::uint64_t row_hits = 0, row_misses = 0;
  std::uint64_t hit_bits = 0;
  std::uint64_t mismatches = 0;  ///< hit bits, fills or totals that differ
  std::string first_mismatch;
};

/// Replays one channel of a recorded cell through SystemCache/DramChannel,
/// mirroring the simulator's per-record order: advance DRAM to the arrival,
/// land completions (fill + writeback), probe the cache, issue the miss,
/// then dedup and issue the recorded prefetch requests.
class ChannelReplay {
 public:
  ChannelReplay(const sim::SimConfig& cfg, int channel, const Recording& rec,
                ReplayStats& st)
      : cfg_(cfg), rec_(rec), st_(st), sc_(slice(cfg, channel)),
        dram_(cfg.dram) {}

  void run(Cycle last_arrival) {
    while (cursor_ < rec_.events.size()) {
      // The fills recorded before a demand are the completions its arrival
      // lands.
      std::size_t next = cursor_;
      while (next < rec_.events.size() && rec_.events[next].is_fill) ++next;
      if (next == rec_.events.size()) break;
      timed_dram([&] { dram_.advance(rec_.events[next].now); });
      completions();
      if (cursor_ != next) {
        mismatch("fill stream differs before a demand");
        return;
      }
      demand(rec_.events[cursor_]);
      ++cursor_;
    }
    timed_dram([&] { dram_.advance(last_arrival); });
    timed_dram([&] { dram_.drain(); });
    completions();
    if (cursor_ != rec_.events.size()) mismatch("recorded events left over");
  }

  std::uint64_t demand_reads = 0;
  std::uint64_t prefetch_issued = 0;
  const dram::ChannelCounters& counters() const { return dram_.counters(); }

 private:
  struct Fly {
    cache::FillSource source = cache::FillSource::kDemand;
    bool was_prefetch = false;
    std::vector<Cycle> waiters;
  };

  static cache::CacheConfig slice(const sim::SimConfig& cfg, int channel) {
    cache::CacheConfig c = cfg.cache;
    c.seed = cfg.cache.seed + static_cast<std::uint64_t>(channel);
    return c;
  }

  template <typename F>
  void timed_dram(F&& f) {
    const auto t0 = Clock::now();
    f();
    st_.dram.add(ns_between(t0, Clock::now()));
  }

  void submit(const dram::DramRequest& req, bool* accepted) {
    const auto t0 = Clock::now();
    const bool ok = dram_.submit(req);
    st_.dram.add(ns_between(t0, Clock::now()));
    ++st_.requests;
    if (accepted != nullptr) *accepted = ok;
  }

  void mismatch(const std::string& why) {
    ++st_.mismatches;
    if (st_.first_mismatch.empty()) st_.first_mismatch = why;
    cursor_ = rec_.events.size();
  }

  void completions() {
    if (!dram_.has_completions()) return;
    timed_dram([&] { dram_.take_completions(done_); });
    for (const auto& d : done_) {
      if (d.is_write) continue;
      const auto it = fly_.find(d.tag);
      if (it == fly_.end()) continue;
      const bool consumed = !it->second.waiters.empty();
      const auto t0 = Clock::now();
      const auto fill = sc_.fill(
          d.tag, consumed ? cache::FillSource::kDemand : it->second.source);
      st_.fill.add(ns_between(t0, Clock::now()));
      if (fill.has_writeback) {
        dram::DramRequest wb;
        wb.local_block = fill.writeback_block;
        wb.arrival = std::max(dram_.now(), d.finish);
        wb.is_write = true;
        wb.tag = fill.writeback_block;
        submit(wb, nullptr);
      }
      const bool was_pf = it->second.source != cache::FillSource::kDemand;
      if (cursor_ >= rec_.events.size() || !rec_.events[cursor_].is_fill ||
          rec_.events[cursor_].block != d.tag ||
          rec_.events[cursor_].was_prefetch != was_pf ||
          rec_.events[cursor_].now != d.finish) {
        mismatch("fill stream differs");
        return;
      }
      ++cursor_;
      fly_.erase(it);
    }
  }

  void demand(const Recording::Event& e) {
    const AccessType type = e.write ? AccessType::kWrite : AccessType::kRead;
    const auto t0 = Clock::now();
    const auto res = sc_.access(e.block, type);
    st_.access.add(ns_between(t0, Clock::now()));
    ++st_.demand_records;
    if (res.hit != e.sc_hit || res.first_use_of_prefetch != e.hit_was_prefetch) {
      mismatch("sc_hit bit differs");
      return;
    }
    ++st_.hit_bits;
    if (!e.write) {
      ++demand_reads;
      if (!res.hit) {
        if (auto it = fly_.find(e.block); it != fly_.end()) {
          it->second.waiters.push_back(e.now);
        } else {
          dram::DramRequest req;
          req.local_block = e.block;
          req.arrival = e.now;
          req.tag = e.block;
          submit(req, nullptr);
          fly_[e.block] = Fly{cache::FillSource::kDemand, false, {e.now}};
        }
      }
    } else if (!res.hit) {
      dram::DramRequest req;
      req.local_block = e.block;
      req.arrival = e.now;
      req.is_write = true;
      req.tag = e.block;
      submit(req, nullptr);
    }
    int issued = 0;
    for (std::uint32_t k = 0; k < e.emit_count; ++k) {
      if (issued >= cfg_.max_prefetches_per_trigger) break;
      const auto& pf = rec_.emitted[e.emit_begin + k];
      if (pf.local_block == e.block || sc_.contains(pf.local_block) ||
          fly_.count(pf.local_block) != 0) {
        continue;
      }
      dram::DramRequest req;
      req.local_block = pf.local_block;
      req.arrival = e.now;
      req.is_prefetch = true;
      req.tag = pf.local_block;
      bool ok = false;
      submit(req, &ok);
      if (!ok) continue;
      fly_[pf.local_block] = Fly{pf.source, true, {}};
      ++prefetch_issued;
      ++issued;
    }
  }

  const sim::SimConfig& cfg_;
  const Recording& rec_;
  ReplayStats& st_;
  cache::SystemCache sc_;
  dram::DramChannel dram_;
  std::unordered_map<std::uint64_t, Fly> fly_;
  std::vector<dram::DramCompletion> done_;
  std::size_t cursor_ = 0;
};

ReplayStats replay_cell(const std::array<Recording, planaria::kChannels>& rec,
                        const sim::SimResult& expect) {
  const sim::SimConfig cfg;
  ReplayStats st;
  Cycle last = 0;
  for (const auto& r : rec) {
    for (const auto& e : r.events) {
      if (!e.is_fill) last = std::max(last, e.now);
    }
  }
  std::uint64_t demand_reads = 0, issued = 0, dram_reads = 0, dram_writes = 0;
  for (int c = 0; c < planaria::kChannels; ++c) {
    ChannelReplay ch(cfg, c, rec[static_cast<std::size_t>(c)], st);
    ch.run(last);
    demand_reads += ch.demand_reads;
    issued += ch.prefetch_issued;
    dram_reads += ch.counters().reads + ch.counters().forwarded_reads;
    dram_writes += ch.counters().writes;
    st.row_hits += ch.counters().row_hits;
    st.row_misses += ch.counters().row_misses;
  }
  if (demand_reads != expect.demand_reads || dram_reads != expect.dram_reads ||
      dram_writes != expect.dram_writes || issued != expect.prefetch_issued) {
    ++st.mismatches;
    if (st.first_mismatch.empty()) {
      st.first_mismatch = "replay totals differ: demand_reads " +
                          std::to_string(demand_reads) + "/" +
                          std::to_string(expect.demand_reads) + " dram_reads " +
                          std::to_string(dram_reads) + "/" +
                          std::to_string(expect.dram_reads) + " dram_writes " +
                          std::to_string(dram_writes) + "/" +
                          std::to_string(expect.dram_writes) + " issued " +
                          std::to_string(issued) + "/" +
                          std::to_string(expect.prefetch_issued);
    }
  }
  return st;
}

/// Bare cost of one span (two clock reads), for the replay's spans.
double bare_span_ns() {
  constexpr int kN = 200000;
  Acc a;
  for (int i = 0; i < kN; ++i) {
    const auto t0 = Clock::now();
    a.add(ns_between(t0, Clock::now()));
  }
  return a.mean();
}

// ------------------------------------------------------------- tick classes

struct TickClasses {
  std::vector<double> admit, ckpt, steady;
  double runnable = 0, admission_defers = 0, ingest_defers = 0;
};

/// Each tick's class comes from the ServeCounters deltas: admitted, else a
/// checkpoint attempted, else steady. Counts are means per tick.
TickClasses classify_ticks(const FleetRun& run) {
  TickClasses tc;
  serve::ServeCounters prev;
  for (std::size_t t = 0; t < run.tick_ms.size(); ++t) {
    const serve::ServeCounters& c = run.after_tick[t];
    const std::uint64_t admitted = c.admitted - prev.admitted;
    if (admitted > 0) {
      tc.admit.push_back(run.tick_ms[t]);
    } else if (c.ckpt_attempted > prev.ckpt_attempted) {
      tc.ckpt.push_back(run.tick_ms[t]);
    } else {
      tc.steady.push_back(run.tick_ms[t]);
    }
    tc.runnable += static_cast<double>(run.live_before_tick[t] + admitted);
    tc.admission_defers +=
        static_cast<double>(c.admission_defers - prev.admission_defers);
    tc.ingest_defers += static_cast<double>(c.ingest_defers - prev.ingest_defers);
    prev = c;
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1, run.tick_ms.size()));
  tc.runnable /= n;
  tc.admission_defers /= n;
  tc.ingest_defers /= n;
  return tc;
}

// --------------------------------------------------------------- the run

bool is_classic(sim::PrefetcherKind k) {
  using K = sim::PrefetcherKind;
  return k == K::kBop || k == K::kSpp || k == K::kSms || k == K::kNextLine ||
         k == K::kStride;
}
bool is_core(sim::PrefetcherKind k) {
  using K = sim::PrefetcherKind;
  return k == K::kPlanaria || k == K::kPlanariaSlpOnly ||
         k == K::kPlanariaTlpOnly || k == K::kSerialComposite ||
         k == K::kParallelComposite;
}

/// The workload's ops as a cell set. serve_fleet's sessions become one cell
/// each, over the trace the server materializes for that tenant.
CellSet traced_cells(const Options& opt, const std::vector<serve::SessionSpec>* specs,
                     const FleetShape* fleet, std::int64_t& gen_ns,
                     std::int64_t& pltb_ns) {
  if (specs == nullptr) {
    CellShape shape = opt.workload == "grid_sweep" ? grid_shape(false)
                                                   : long_shape(false);
    shape.via_pltb = true;
    return build_cells(shape, opt.seed, opt.workdir, &gen_ns, &pltb_ns);
  }
  CellSet set;
  set.fan_out = true;
  for (std::size_t i = 0; i < specs->size(); ++i) {
    const serve::SessionSpec& s = (*specs)[i];
    trace::AppProfile profile = trace::app_by_name(s.app);
    profile.seed ^= mix64(s.user_seed);
    const auto t0 = Clock::now();
    const auto records =
        trace::generate_app_trace(profile, fleet->config.records_per_session);
    const auto t1 = Clock::now();
    gen_ns += ns_between(t0, t1);
    const std::string path = opt.workdir + "/session.pltb";
    trace::write_batch_file(path, trace::TraceBatch(records));
    const trace::MappedTraceBatch mapped(path);
    set.batches.push_back(mapped.to_batch());
    pltb_ns += ns_between(t1, Clock::now());
    set.apps.push_back(s.app);
    set.cells.push_back({i, s.kind});
  }
  return set;
}

double channel_record_skew(const CellSet& set) {
  double sum = 0;
  for (const auto& b : set.batches) {
    std::array<std::uint64_t, planaria::kChannels> n{};
    for (std::size_t i = 0; i < b.size(); ++i) {
      ++n[static_cast<std::size_t>(planaria::addr::channel_of(b.addresses()[i]))];
    }
    const double mean = static_cast<double>(b.size()) / planaria::kChannels;
    sum += static_cast<double>(*std::max_element(n.begin(), n.end())) / mean;
  }
  return set.batches.empty() ? 0.0 : sum / static_cast<double>(set.batches.size());
}

}  // namespace

void run_traced(const Options& opt, Report& report) {
  fresh_dir(opt.workdir);
  const std::string ckpt_dir = opt.workdir + "/cells";
  fresh_dir(ckpt_dir);
  const bool is_serve = opt.workload == "serve_fleet";
  if (!is_serve && opt.workload != "grid_sweep" &&
      opt.workload != "planaria_long") {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }

  // serve.*: the workload's own fleet, or the canary fleet elsewhere.
  const FleetShape fleet = fleet_shape(!is_serve);
  const auto specs = fleet_specs(fleet, opt.seed);
  const FleetRun served =
      run_fleet(fleet, specs, opt.threads, opt.workdir + "/serve_ckpt", true);
  report.attempted += served.outcomes.size();

  std::int64_t gen_ns = 0;
  std::int64_t pltb_ns = 0;
  const CellSet set = traced_cells(opt, is_serve ? &specs : nullptr, &fleet,
                                   gen_ns, pltb_ns);
  std::uint64_t generated = 0;
  for (const auto& b : set.batches) generated += b.size();

  // Untraced serial pass: reference results and cell times (also the warm
  // pass for the traced one).
  std::vector<double> cell_ms;
  const auto u0 = Clock::now();
  const auto plain = run_cells(set, nullptr, &cell_ms);
  const double untraced_s = seconds_between(u0, Clock::now());
  report.attempted += plain.size();
  if (is_serve) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      if (served.outcomes[i].state != serve::SessionState::kCompleted ||
          !(served.outcomes[i].result == plain[i])) {
        ++bad;
      }
    }
    if (bad != 0) {
      report.fail(std::to_string(bad) +
                      " sessions differ from their replay outside the server",
                  bad);
    }
  }

  // Probe cells for kinds the workload lacks (planaria_long has only
  // planaria), so every prefetch/core metric and the none calibration exist.
  CellSet probe;
  {
    std::vector<sim::PrefetcherKind> missing;
    for (const auto k : sim::all_prefetcher_kinds()) {
      bool have = false;
      for (const auto& c : set.cells) have = have || c.kind == k;
      if (!have) missing.push_back(k);
    }
    if (!missing.empty()) {
      CellShape ps;
      ps.apps = {"HoK"};
      ps.kinds = missing;
      ps.records_per_app = 100000;
      probe = build_cells(ps, opt.seed, opt.workdir);
    }
  }
  const auto probe_plain = run_cells(probe, nullptr, nullptr);
  report.attempted += probe_plain.size();

  // Replay cell: Fort under BOP where present (heavy DRAM), else Fort.
  auto find_fort = [&](bool bop_only) {
    for (std::size_t i = 0; i < set.cells.size(); ++i) {
      if (set.apps[set.cells[i].app] == "Fort" &&
          (!bop_only || set.cells[i].kind == sim::PrefetcherKind::kBop)) {
        return i;
      }
    }
    return set.cells.size();
  };
  std::size_t replay_at = find_fort(true);
  if (replay_at == set.cells.size()) replay_at = find_fort(false);
  if (replay_at == set.cells.size()) replay_at = 0;

  // Traced passes until --seconds have elapsed (at least one).
  std::map<sim::PrefetcherKind, PfStats> per_kind;    // every pass
  std::map<sim::PrefetcherKind, PfStats> first_pass;  // counts of pass 0
  std::map<sim::PrefetcherKind, std::vector<const sim::SimResult*>> results_by_kind;
  Acc build, run, encode, decode, ckpt;
  std::uint64_t snap_bytes = 0, snaps = 0, traced_records = 0;
  double traced_cell_s = 0.0;
  std::int64_t pf_span_ns = 0;
  std::array<Recording, planaria::kChannels> recording;
  std::uint64_t bad_traced = 0, bad_snap = 0;
  auto trace_set = [&](int pass, const CellSet& cs,
                       const std::vector<sim::SimResult>& ref, bool main) {
    for (std::size_t i = 0; i < cs.cells.size(); ++i) {
      const bool record = main && pass == 0 && i == replay_at;
      CellTrace ct = traced_cell(cs.batches[cs.cells[i].app], cs.cells[i].kind,
                                 ckpt_dir, "cell" + std::to_string(i % 8),
                                 record ? &recording : nullptr);
      report.attempted += 1;
      if (!matches_untraced(ct.result, ref[i])) ++bad_traced;
      if (!ct.snapshot_ok) ++bad_snap;
      const PfStats t = ct.pf_total();
      PfStats& k = per_kind[cs.cells[i].kind];
      k.demand.merge(t.demand);
      k.fill.merge(t.fill);
      if (pass == 0) {
        first_pass[cs.cells[i].kind].demand.merge(t.demand);
        first_pass[cs.cells[i].kind].emitted += t.emitted;
        results_by_kind[cs.cells[i].kind].push_back(&ref[i]);
      }
      build.merge(ct.build);
      run.merge(ct.run);
      encode.merge(ct.encode);
      decode.merge(ct.decode);
      ckpt.merge(ct.ckpt);
      snap_bytes += ct.snapshot_bytes;
      ++snaps;
      traced_records += ct.records;
      pf_span_ns += ct.pf_ns_in_run;
      if (main && pass == 0) {
        traced_cell_s += static_cast<double>(ct.build.ns + ct.run.ns +
                                             ct.finish.ns) * 1e-9;
      }
    }
  };
  const auto t_start = Clock::now();
  for (int pass = 0;; ++pass) {
    trace_set(pass, set, plain, true);
    trace_set(pass, probe, probe_plain, false);
    if (seconds_between(t_start, Clock::now()) >= opt.seconds) break;
  }
  if (bad_traced != 0) {
    report.fail(std::to_string(bad_traced) +
                    " traced results differ from untraced beyond slp/tlp_issues",
                bad_traced);
  }
  if (bad_snap != 0) {
    report.fail(std::to_string(bad_snap) + " snapshots did not round-trip",
                bad_snap);
  }

  // Calibration: the decorator around the no-op `none` prefetcher measures
  // the span itself.
  const double ovh_demand = per_kind[sim::PrefetcherKind::kNone].demand.mean();
  const double ovh_fill = per_kind[sim::PrefetcherKind::kNone].fill.mean();
  const double bare = bare_span_ns();
  auto net = [](double v, double ovh) { return std::max(0.0, v - ovh); };

  // Replay verification.
  const ReplayStats rs = replay_cell(recording, plain[replay_at]);
  report.attempted += 1;
  if (rs.mismatches != 0) {
    report.fail("replay of " + set.label(replay_at) + ": " + rs.first_mismatch);
  } else {
    Report::note("gate: replay of " + set.label(replay_at) + " reproduced " +
                 std::to_string(rs.hit_bits) +
                 " sc_hit bits and the cell's read/write/issue totals");
  }
  std::filesystem::remove_all(opt.workdir);

  // ---- metrics
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto gen_d = static_cast<double>(generated);
  report.add("trace.gen_ns_per_record", per(gen_ns, gen_d), "ns");
  report.add("trace.pltb_map_ns_per_record", per(pltb_ns, gen_d), "ns");

  PfStats classic_first;  // counts over the first pass, as the results are
  std::uint64_t classic_issued = 0;
  std::vector<double> classic_accuracy;
  for (const auto k : sim::all_prefetcher_kinds()) {
    const PfStats& s = per_kind[k];
    const std::string name = sim::prefetcher_kind_name(k);
    if (is_classic(k)) {
      report.add("prefetch.on_demand_ns." + name,
                 net(s.demand.mean(), ovh_demand), "ns");
      classic_first.demand.merge(first_pass[k].demand);
      classic_first.emitted += first_pass[k].emitted;
      for (const sim::SimResult* r : results_by_kind[k]) {
        classic_issued += r->prefetch_issued;
        classic_accuracy.push_back(r->prefetch_accuracy);
      }
    } else if (is_core(k)) {
      report.add("core.on_demand_ns." + name, net(s.demand.mean(), ovh_demand),
                 "ns");
    }
  }
  // BOP is the only prefetcher that trains on fills.
  report.add("prefetch.on_fill_ns",
             net(per_kind[sim::PrefetcherKind::kBop].fill.mean(), ovh_fill),
             "ns");
  report.add("prefetch.emitted_per_trigger",
             per(classic_first.emitted, classic_first.demand.n), "count");
  report.add("prefetch.issue_ratio", per(classic_issued, classic_first.emitted),
             "ratio");
  report.add("prefetch.accuracy", sim::mean(classic_accuracy), "ratio");

  double slp = 0, tlp = 0;
  for (const sim::SimResult* r : results_by_kind[sim::PrefetcherKind::kPlanaria]) {
    slp += r->slp_issues;
    tlp += r->tlp_issues;
  }
  report.add("core.slp_issue_share", per(slp, slp + tlp), "ratio");

  double hit_w = 0, reads = 0;
  for (const auto& r : plain) {
    hit_w += r.sc_hit_rate * static_cast<double>(r.demand_reads);
    reads += static_cast<double>(r.demand_reads);
  }
  report.add("cache.access_ns", net(rs.access.mean(), bare), "ns");
  report.add("cache.fill_ns", net(rs.fill.mean(), bare), "ns");
  report.add("cache.hit_rate", per(hit_w, reads), "ratio");
  report.add("dram.ns_per_request",
             per(net(rs.dram.ns, bare * rs.dram.n), rs.requests), "ns");
  report.add("dram.requests_per_record", per(rs.requests, rs.demand_records),
             "count");
  report.add("dram.row_hit_rate", per(rs.row_hits, rs.row_hits + rs.row_misses),
             "ratio");

  report.add("sim.spine_self_ns_per_record",
             per(run.ns - pf_span_ns, traced_records), "ns");
  report.add("sim.cell_ms_p50", percentile(cell_ms, 50), "ms");
  report.add("sim.cell_ms_max", percentile(cell_ms, 100), "ms");
  report.add("sim.channel_record_skew", channel_record_skew(set), "ratio");
  report.add("sim.build_ms", build.mean() * 1e-6, "ms");
  report.add("sim.checkpoint_write_ms", ckpt.mean() * 1e-6, "ms");

  report.add("snapshot.encode_ns_per_byte", per(encode.ns, snap_bytes), "ns");
  report.add("snapshot.decode_ns_per_byte", per(decode.ns, snap_bytes), "ns");
  report.add("snapshot.bytes_per_sim", per(snap_bytes, snaps), "B");

  const TickClasses tc = classify_ticks(served);
  report.add("serve.tick_admit_ms", median(tc.admit), "ms");
  report.add("serve.tick_ckpt_ms", median(tc.ckpt), "ms");
  report.add("serve.tick_steady_ms", median(tc.steady), "ms");
  report.add("serve.runnable_per_tick", tc.runnable, "count");
  report.add("serve.admission_defers", tc.admission_defers, "count");
  report.add("serve.ingest_defers", tc.ingest_defers, "count");

  report.add("span_overhead_ns", ovh_demand, "ns");
  report.add("trace_overhead_pct",
             100.0 * (traced_cell_s - untraced_s) / untraced_s, "%");

  char line[200];
  std::snprintf(line, sizeof line,
                "traced: %zu cells + %zu probe cells, tick classes admit/ckpt/steady n=%zu/%zu/%zu, "
                "span overhead demand %.1f ns fill %.1f ns bare %.1f ns",
                set.cells.size(), probe.cells.size(), tc.admit.size(),
                tc.ckpt.size(), tc.steady.size(), ovh_demand, ovh_fill, bare);
  Report::note(line);
}

}  // namespace perfbench
