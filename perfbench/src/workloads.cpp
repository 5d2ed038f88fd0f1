// Workload shapes, the untraced run and the output gates.
//
// An untraced run of one workload:
//   1. set-up, repeated a few times (median reported as setup_s): trace
//      generation, the PLTB write and map, server construction;
//   2. one untimed warm pass at the pooled thread count, whose output digest
//      is the reference for every timed pass;
//   3. the timed region: serial/pooled pass pairs, the order alternating
//      from pair to pair, until --seconds have elapsed;
//   4. the gates: each timed pass equals the reference (so pooled equals
//      serial), the default-seed canary equals its pinned digest (and the
//      full workload too when run at the default seed), and on grid_sweep
//      the stock-seed grid equals ExperimentRunner::sweep.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "sim/experiment.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/apps.hpp"
#include "trace/io.hpp"

namespace perfbench {

namespace {

/// Sessions of one fleet user: every app under every kind.
constexpr std::size_t kFleetUserSessions = 10 * 11;

/// FNV-1a over byte streams: the output digest of a workload.
class Digest {
 public:
  void bytes(const std::vector<std::uint8_t>& b);
  void result(const sim::SimResult& r);  ///< over SimResult::save_state bytes
  void outcome(const serve::SessionOutcome& o);
  void counters(const serve::ServeCounters& c);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

// ------------------------------------------------------------------ helpers

void Report::fail(const std::string& why, std::uint64_t ops) {
  correct = false;
  failed += ops;
  std::printf("FAIL: %s\n", why.c_str());
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

void Digest::bytes(const std::vector<std::uint8_t>& b) {
  for (const std::uint8_t byte : b) {
    h_ ^= byte;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::result(const sim::SimResult& r) {
  planaria::snapshot::Writer w;
  r.save_state(w);
  bytes(w.buffer());
}

void Digest::outcome(const serve::SessionOutcome& o) {
  planaria::snapshot::Writer w;
  w.u64(o.id);
  w.str(o.spec.app);
  w.u32(static_cast<std::uint32_t>(o.spec.kind));
  w.u64(o.spec.user_seed);
  w.u8(static_cast<std::uint8_t>(o.state));
  w.u64(o.admit_tick);
  w.u64(o.end_tick);
  w.u32(static_cast<std::uint32_t>(o.attempts));
  w.u64(o.records_fed);
  bytes(w.buffer());
  result(o.result);
}

void Digest::counters(const serve::ServeCounters& c) {
  planaria::snapshot::Writer w;
  for (const std::uint64_t v :
       {c.submitted, c.admitted, c.admission_defers, c.ingested_records,
        c.fed_records, c.ingest_defers, c.shed_queued_records,
        c.drills_injected, c.quantum_errors, c.backoff_events,
        c.backoff_ticks_waited, c.deadline_violations, c.sessions_completed,
        c.sessions_drained, c.sessions_shed_retry, c.sessions_shed_deadline,
        c.sessions_rejected, c.ckpt_attempted, c.ckpt_written,
        c.ckpt_degraded}) {
    w.u64(v);
  }
  bytes(w.buffer());
}

std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t z = x + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

trace::AppProfile seeded_profile(const std::string& app, std::uint64_t seed) {
  trace::AppProfile p = trace::app_by_name(app);
  if (seed != kStockSeed) p.seed ^= mix64(seed ^ 0xBE4C'0000ull);
  return p;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t idx =
      std::min(xs.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return xs[idx];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// ---------------------------------------------------------------- cell sets

std::uint64_t CellSet::records() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells) n += batches[c.app].size();
  return n;
}

std::string CellSet::label(std::size_t cell) const {
  return apps[cells[cell].app] + "/" +
         sim::prefetcher_kind_name(cells[cell].kind);
}

CellShape grid_shape(bool canary) {
  CellShape s;
  s.apps = trace::app_names();
  s.kinds = sim::all_prefetcher_kinds();
  s.records_per_app = canary ? 4000 : 40000;
  s.fan_out = true;
  return s;
}

CellShape long_shape(bool canary) {
  CellShape s;
  s.apps = {"HoK", "Fort", "PM"};
  s.kinds = {sim::PrefetcherKind::kPlanaria};
  s.records_per_app = canary ? 50000 : 1000000;
  s.fan_out = false;
  s.via_pltb = true;
  return s;
}

CellSet build_cells(const CellShape& shape, std::uint64_t seed,
                    const std::string& workdir, std::int64_t* gen_ns,
                    std::int64_t* pltb_ns) {
  CellSet set;
  set.apps = shape.apps;
  set.fan_out = shape.fan_out;
  for (const std::string& app : shape.apps) {
    const auto t0 = Clock::now();
    const auto records = trace::generate_app_trace(seeded_profile(app, seed),
                                                   shape.records_per_app);
    const auto t1 = Clock::now();
    if (gen_ns != nullptr) *gen_ns += ns_between(t0, t1);
    trace::TraceBatch batch(records);
    if (shape.via_pltb) {
      const std::string path = workdir + "/" + app + ".pltb";
      const auto p0 = Clock::now();
      trace::write_batch_file(path, batch);
      const trace::MappedTraceBatch mapped(path);
      trace::TraceBatch back = mapped.to_batch();
      const auto p1 = Clock::now();
      if (pltb_ns != nullptr) *pltb_ns += ns_between(p0, p1);
      if (!(back == batch)) {
        throw std::runtime_error("PLTB round trip changed trace " + app);
      }
      batch = std::move(back);
    }
    set.batches.push_back(std::move(batch));
  }
  for (std::size_t a = 0; a < shape.apps.size(); ++a) {
    for (const sim::PrefetcherKind k : shape.kinds) set.cells.push_back({a, k});
  }
  return set;
}

sim::SimResult run_cell(const trace::TraceBatch& batch,
                        sim::PrefetcherKind kind, common::ThreadPool* pool) {
  sim::Simulator s(sim::SimConfig{}, sim::make_prefetcher_factory(kind),
                   sim::prefetcher_kind_name(kind));
  s.run_sharded(batch, pool);
  return s.finish();
}

std::vector<sim::SimResult> run_cells(const CellSet& set,
                                      common::ThreadPool* pool,
                                      std::vector<double>* cell_ms) {
  const std::size_t n = set.cells.size();
  std::vector<sim::SimResult> out(n);
  std::vector<double> ms(n, 0.0);
  auto one = [&](std::size_t i) {
    const auto t0 = Clock::now();
    out[i] = run_cell(set.batches[set.cells[i].app], set.cells[i].kind, pool);
    ms[i] = seconds_between(t0, Clock::now()) * 1e3;
  };
  if (pool != nullptr && set.fan_out) {
    pool->parallel_for(n, one);
  } else {
    for (std::size_t i = 0; i < n; ++i) one(i);
  }
  if (cell_ms != nullptr) *cell_ms = std::move(ms);
  return out;
}

// -------------------------------------------------------------------- fleet

FleetShape fleet_shape(bool canary) {
  FleetShape f;
  f.sessions = canary ? 22 : 2 * kFleetUserSessions;
  serve::ServeConfig& c = f.config;
  c.records_per_session = canary ? 2000 : 16000;
  c.max_live_sessions = canary ? 4 : 16;
  c.quantum_records = canary ? 256 : 1024;
  c.ingest_per_tick = 2 * c.quantum_records;
  c.queue_capacity = 8 * c.quantum_records;
  c.checkpoint_every_ticks = 16;
  return f;
}

std::vector<serve::SessionSpec> fleet_specs(const FleetShape& shape,
                                            std::uint64_t seed) {
  // Each user runs every app under every kind: tenant i is user i / 110,
  // streaming app i % 10 under kind (i / 10) % 11. A user's sessions of one
  // app share one trace, so Planaria and none compare on identical traffic.
  const auto apps = trace::app_names();
  const auto& kinds = sim::all_prefetcher_kinds();
  static const char* const kDevices[] = {"phone", "tablet", "watch"};
  std::vector<serve::SessionSpec> specs;
  for (std::size_t i = 0; i < shape.sessions; ++i) {
    const std::size_t user = i / kFleetUserSessions;
    serve::SessionSpec s;
    s.app = apps[i % apps.size()];
    s.kind = kinds[(i / apps.size()) % kinds.size()];
    s.user_seed = mix64(seed * 0x10001ull + user);
    s.device = kDevices[user % 3];
    specs.push_back(s);
  }
  return specs;
}

FleetRun run_fleet(const FleetShape& shape,
                   const std::vector<serve::SessionSpec>& specs,
                   std::size_t threads, const std::string& ckpt_dir,
                   bool keep_ticks) {
  // A leftover envelope would make the server resume instead of serving.
  fresh_dir(ckpt_dir);
  serve::ServeConfig cfg = shape.config;
  cfg.checkpoint_dir = ckpt_dir;
  FleetRun run;
  serve::SessionServer server(cfg, threads);
  server.add_fleet(specs);
  for (;;) {
    const std::size_t live = server.live_sessions();
    const auto a = Clock::now();
    const bool more = server.tick();
    const auto b = Clock::now();
    if (keep_ticks) {
      run.tick_ms.push_back(seconds_between(a, b) * 1e3);
      run.after_tick.push_back(server.counters());
      run.live_before_tick.push_back(live);
    }
    if (!more) break;
  }
  run.outcomes = server.outcomes();
  run.counters = server.counters();
  return run;
}

namespace {

std::uint64_t digest_results(const std::vector<sim::SimResult>& results) {
  Digest d;
  for (const auto& r : results) d.result(r);
  return d.value();
}

std::uint64_t digest_fleet(const FleetRun& run) {
  Digest d;
  for (const auto& o : run.outcomes) d.outcome(o);
  d.counters(run.counters);
  return d.value();
}

// ------------------------------------------------------------------ science

/// Simulated Planaria-vs-none averages over apps (percent).
struct ScienceFigures {
  double amat_reduction_pct = 0.0;
  double ipc_gain_pct = 0.0;
  std::size_t apps = 0;
};

ScienceFigures science_from_fleet(
    const std::vector<serve::SessionOutcome>& outcomes) {
  // Per app: the mean over users of Planaria against none on the same
  // trace, then averaged over apps.
  std::vector<double> amat;
  std::vector<double> ipc;
  for (const std::string& app : trace::app_names()) {
    std::map<std::uint64_t, const sim::SimResult*> none;
    for (const auto& o : outcomes) {
      if (o.spec.app == app && o.spec.kind == sim::PrefetcherKind::kNone) {
        none[o.spec.user_seed] = &o.result;
      }
    }
    std::vector<double> a;
    std::vector<double> g;
    for (const auto& o : outcomes) {
      if (o.spec.app != app || o.spec.kind != sim::PrefetcherKind::kPlanaria) {
        continue;
      }
      const auto it = none.find(o.spec.user_seed);
      if (it == none.end()) continue;
      a.push_back(100.0 * o.result.amat_reduction_vs(*it->second));
      g.push_back(100.0 * o.result.ipc_gain_vs(*it->second));
    }
    if (a.empty()) continue;
    amat.push_back(sim::mean(a));
    ipc.push_back(sim::mean(g));
  }
  return {sim::mean(amat), sim::mean(ipc), amat.size()};
}

/// The digest pinned for `key` in `path`; empty when absent.
std::string pinned_digest(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string k;
  std::string v;
  while (in >> k >> v) {
    if (k == key) return v;
  }
  return {};
}

// ------------------------------------------------------------ untraced runs

/// One workload behind a uniform interface for the untraced driver.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs; called setup_reps() times, the last build is kept.
  virtual void setup(std::uint64_t seed) = 0;
  virtual int setup_reps() const { return 3; }
  struct Pass {
    std::uint64_t records = 0;
    std::uint64_t digest = 0;
    std::uint64_t ops = 0;
    std::uint64_t ops_failed = 0;  ///< ops that ended badly in this pass
    std::vector<double> ticks_ms;
  };
  /// One pass over every op; `pool` is null for the serial pass.
  virtual Pass pass(common::ThreadPool* pool, std::size_t threads) = 0;
  /// Canary digest at `seed` (small shapes), for the pinned gate.
  virtual std::uint64_t canary(std::uint64_t seed, std::size_t threads,
                               common::ThreadPool* pool) = 0;
  virtual ScienceFigures science(common::ThreadPool* pool) = 0;
  /// Tick samples the timed region must collect, so that tick_p99_ms has at
  /// least ten samples beyond it.
  virtual std::size_t min_ticks() const { return 0; }
};

class CellWorkload final : public Workload {
 public:
  CellWorkload(CellShape (*shape)(bool), std::string workdir)
      : shape_(shape), workdir_(std::move(workdir)) {}

  void setup(std::uint64_t seed) override {
    set_ = build_cells(shape_(false), seed, workdir_);
  }

  Pass pass(common::ThreadPool* pool, std::size_t) override {
    Pass p;
    last_ = run_cells(set_, pool, &p.ticks_ms);
    p.records = set_.records();
    p.digest = digest_results(last_);
    p.ops = set_.cells.size();
    return p;
  }

  std::uint64_t canary(std::uint64_t seed, std::size_t,
                       common::ThreadPool* pool) override {
    const CellSet c = build_cells(shape_(true), seed, workdir_);
    return digest_results(run_cells(c, pool, nullptr));
  }

  ScienceFigures science(common::ThreadPool* pool) override {
    // Per app: the planaria cell against the none cell on the same trace.
    // planaria_long has no none cells; they are simulated here, untimed.
    std::vector<double> amat;
    std::vector<double> ipc;
    for (std::size_t a = 0; a < set_.apps.size(); ++a) {
      const sim::SimResult* none = nullptr;
      const sim::SimResult* pl = nullptr;
      for (std::size_t i = 0; i < set_.cells.size(); ++i) {
        if (set_.cells[i].app != a) continue;
        if (set_.cells[i].kind == sim::PrefetcherKind::kNone) none = &last_[i];
        if (set_.cells[i].kind == sim::PrefetcherKind::kPlanaria) pl = &last_[i];
      }
      if (pl == nullptr) continue;
      sim::SimResult baseline;
      if (none == nullptr) {
        baseline = run_cell(set_.batches[a], sim::PrefetcherKind::kNone, pool);
        none = &baseline;
      }
      amat.push_back(100.0 * pl->amat_reduction_vs(*none));
      ipc.push_back(100.0 * pl->ipc_gain_vs(*none));
    }
    return {sim::mean(amat), sim::mean(ipc), amat.size()};
  }

 private:
  CellShape (*shape_)(bool);
  std::string workdir_;
  CellSet set_;
  std::vector<sim::SimResult> last_;
};

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::string workdir) : workdir_(std::move(workdir)) {}

  void setup(std::uint64_t seed) override {
    shape_ = fleet_shape(false);
    specs_ = fleet_specs(shape_, seed);
    // Construction cost of a server with the whole fleet registered; the
    // timed passes build their own (the server is single-use).
    serve::ServeConfig cfg = shape_.config;
    cfg.checkpoint_dir = workdir_ + "/setup_ckpt";
    serve::SessionServer server(cfg, 1);
    server.add_fleet(specs_);
  }

  Pass pass(common::ThreadPool* pool, std::size_t threads) override {
    const FleetRun run = run_fleet(shape_, specs_, pool ? threads : 1,
                                   workdir_ + "/serve_ckpt", true);
    Pass p;
    p.records = run.counters.fed_records;
    p.digest = digest_fleet(run);
    p.ops = run.outcomes.size();
    for (const auto& o : run.outcomes) {
      if (o.state != serve::SessionState::kCompleted) ++p.ops_failed;
    }
    p.ticks_ms = run.tick_ms;
    last_ = run.outcomes;
    return p;
  }

  std::uint64_t canary(std::uint64_t seed, std::size_t threads,
                       common::ThreadPool*) override {
    const FleetShape shape = fleet_shape(true);
    return digest_fleet(run_fleet(shape, fleet_specs(shape, seed), threads,
                                  workdir_ + "/canary_ckpt", false));
  }

  ScienceFigures science(common::ThreadPool*) override {
    return science_from_fleet(last_);
  }

  std::size_t min_ticks() const override { return 1000; }
  /// Server construction takes well under a millisecond: more repetitions
  /// keep its median steady.
  int setup_reps() const override { return 51; }

 private:
  std::string workdir_;
  FleetShape shape_;
  std::vector<serve::SessionSpec> specs_;
  std::vector<serve::SessionOutcome> last_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& workdir) {
  if (name == "grid_sweep") {
    return std::make_unique<CellWorkload>(&grid_shape, workdir);
  }
  if (name == "planaria_long") {
    return std::make_unique<CellWorkload>(&long_shape, workdir);
  }
  if (name == "serve_fleet") return std::make_unique<FleetWorkload>(workdir);
  throw std::invalid_argument("unknown workload: " + name);
}

std::string counted(const char* what, double v, std::size_t n) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-28s %.6g  (n=%zu)", what, v, n);
  return buf;
}

std::string listed(const char* what, const std::vector<double>& xs) {
  std::string out = std::string("  ") + what + ":";
  for (const double x : xs) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4g", x);
    out += buf;
  }
  return out;
}

/// ExperimentRunner::sweep at the stock seed must equal our grid cells.
void stock_seed_gate(const Options& opt, Report& report) {
  const CellShape shape = grid_shape(true);
  const CellSet set = build_cells(shape, kStockSeed, opt.workdir);
  common::ThreadPool pool(opt.threads);
  const auto ours = run_cells(set, &pool, nullptr);
  sim::ExperimentRunner runner(sim::SimConfig{}, shape.records_per_app,
                               opt.threads);
  const auto grid = runner.sweep(shape.kinds);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < set.cells.size(); ++i) {
    const auto& c = set.cells[i];
    if (!(grid.at(set.apps[c.app]).at(sim::prefetcher_kind_name(c.kind)) ==
          ours[i])) {
      ++bad;
    }
  }
  report.attempted += set.cells.size();
  if (bad != 0) {
    report.fail("stock-seed grid differs from ExperimentRunner::sweep in " +
                    std::to_string(bad) + " cells",
                bad);
  } else {
    Report::note("gate: stock-seed grid equals ExperimentRunner::sweep (" +
                 std::to_string(set.cells.size()) + " cells)");
  }
}

}  // namespace

void run_untraced(const Options& opt, Report& report) {
  fresh_dir(opt.workdir);
  auto w = make_workload(opt.workload, opt.workdir);

  std::vector<double> setup_s;
  for (int i = 0; i < w->setup_reps(); ++i) {
    const auto t0 = Clock::now();
    w->setup(opt.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  common::ThreadPool pool(opt.threads);
  // Warm pass: untimed, pooled; its digest is the reference.
  const Workload::Pass ref = w->pass(&pool, opt.threads);
  report.attempted += ref.ops;
  if (ref.ops_failed != 0) {
    report.fail("warm pass: ops did not complete", ref.ops_failed);
  }

  std::vector<double> rate_pooled;
  std::vector<double> rate_serial;
  std::vector<double> cpu_per_m;
  std::vector<double> ticks;
  const auto t_start = Clock::now();
  for (std::size_t pair = 0;; ++pair) {
    const bool serial_first = ((pair + opt.seed) % 2) == 0;
    for (int half = 0; half < 2; ++half) {
      const bool serial = (half == 0) == serial_first;
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      const Workload::Pass p = w->pass(serial ? nullptr : &pool, opt.threads);
      const double wall = seconds_between(t0, Clock::now());
      const double cpu = cpu_seconds() - c0;
      report.attempted += p.ops;
      if (p.ops_failed != 0) {
        report.fail("timed pass: ops did not complete", p.ops_failed);
      }
      if (p.digest != ref.digest) {
        report.fail(std::string(serial ? "serial" : "pooled") +
                        " pass digest " + hex64(p.digest) +
                        " != reference " + hex64(ref.digest),
                    p.ops);
      }
      const double rate = static_cast<double>(p.records) / wall;
      // Ticks come from the serial passes: an op's own latency, free of
      // the pool's contention with sibling ops and with other load on the
      // machine, which moves pooled wall times run to run.
      if (serial) {
        rate_serial.push_back(rate);
        ticks.insert(ticks.end(), p.ticks_ms.begin(), p.ticks_ms.end());
      } else {
        rate_pooled.push_back(rate);
        cpu_per_m.push_back(cpu / (static_cast<double>(p.records) / 1e6));
      }
    }
    if (seconds_between(t_start, Clock::now()) >= opt.seconds &&
        ticks.size() >= w->min_ticks()) {
      break;
    }
  }

  const double rss_mb = peak_rss_mb();

  // Gates outside the timed region.
  const std::string pin_file = opt.pinned_path;
  const std::uint64_t canary = w->canary(kDefaultSeed, opt.threads, &pool);
  report.attempted += 1;
  const std::string want_canary =
      pinned_digest(pin_file, opt.workload + ".canary");
  if (want_canary != hex64(canary)) {
    report.fail("default-seed canary digest " + hex64(canary) +
                " != pinned '" + want_canary + "'");
  } else {
    Report::note("gate: default-seed canary digest matches pin " + want_canary);
  }
  if (opt.seed == kDefaultSeed) {
    const std::string want = pinned_digest(pin_file, opt.workload + ".full");
    if (want != hex64(ref.digest)) {
      report.fail("default-seed digest " + hex64(ref.digest) +
                  " != pinned '" + want + "'");
    } else {
      Report::note("gate: default-seed digest matches pin " + want);
    }
  }
  if (opt.workload == "grid_sweep") stock_seed_gate(opt, report);
  const ScienceFigures sci = w->science(&pool);

  Report::note("workload " + opt.workload + " seed " +
               std::to_string(opt.seed) + " threads " +
               std::to_string(opt.threads) + " digest " + hex64(ref.digest));
  Report::note(counted("pooled passes", median(rate_pooled), rate_pooled.size()));
  Report::note(counted("serial passes", median(rate_serial), rate_serial.size()));
  Report::note(listed("pooled records/s by pass", rate_pooled));
  Report::note(listed("serial records/s by pass", rate_serial));
  Report::note(counted("tick_p50_ms", percentile(ticks, 50), ticks.size()));
  Report::note(counted("tick_p99_ms", percentile(ticks, 99), ticks.size()));
  Report::note(counted("setup_s (median)", median(setup_s), setup_s.size()));
  char line[256];
  std::snprintf(line, sizeof line,
                "simulated, short traces, model not validated against "
                "hardware: Planaria vs none over %zu apps: AMAT -%.2f%% "
                "(paper 24.3%%), IPC +%.2f%% (paper +28.9%%)",
                sci.apps, sci.amat_reduction_pct, sci.ipc_gain_pct);
  Report::note(line);

  report.add("records_per_s", median(rate_pooled), "1/s");
  report.add("records_per_s_serial", median(rate_serial), "1/s");
  report.add("cpu_s_per_mrecord", median(cpu_per_m), "s");
  report.add("tick_p50_ms", percentile(ticks, 50), "ms");
  report.add("tick_p99_ms", percentile(ticks, 99), "ms");
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", rss_mb, "MiB");
  report.add("planaria_amat_reduction_pct", sci.amat_reduction_pct, "%");
  report.add("planaria_ipc_gain_pct", sci.ipc_gain_pct, "%");
  std::filesystem::remove_all(opt.workdir);
}

void print_pins(const Options& opt) {
  fresh_dir(opt.workdir);
  common::ThreadPool pool(opt.threads);
  for (const char* name : {"grid_sweep", "planaria_long", "serve_fleet"}) {
    auto w = make_workload(name, opt.workdir);
    std::printf("%s.canary %s\n", name,
                hex64(w->canary(kDefaultSeed, opt.threads, &pool)).c_str());
    w->setup(kDefaultSeed);
    std::printf("%s.full %s\n", name,
                hex64(w->pass(&pool, opt.threads).digest).c_str());
  }
  std::filesystem::remove_all(opt.workdir);
}

}  // namespace perfbench
