// planaria-audit — the invariant audit gate CI runs on every change.
//
// Eight stages (select with --stage, default all):
//   1. Self-test: deliberately injects a storage-budget violation and checks
//      the contract layer flags it. A gate that cannot see a planted bug is
//      blind; this stage failing exits 2 and nothing else is trusted.
//   2. Static audit: instantiates every registered prefetcher kind,
//      cross-checks the two independent storage accountings (component
//      storage_bits() vs the field-by-field breakdown) against each other and
//      against the paper's hardware budget, and verifies table geometry
//      (power-of-two set counts, field bit-widths wide enough for their
//      configured values).
//   3. Replay audit: runs every kind over randomized synthetic traces with
//      all contracts armed in log-and-count mode; any violation anywhere in
//      the FT/AT/PHT pipeline, the RPT, the coordinator, the cache, or the
//      DRAM timing model fails the gate. Each replay also runs on the
//      channel-sharded parallel path (4-lane thread pool) and must produce a
//      bit-identical SimResult — the parallel engine's determinism contract
//      is part of the gate.
//   4. Chaos audit: replays every (app x kind) cell under each fault class in
//      isolation (src/fault) with contracts in kRecover mode. The gate: every
//      cell completes without abort, every violation is recovered, the
//      violation tally matches the injector's applied-fault count per the
//      class's manifestation rule, and the flagship kind reproduces the same
//      result and counters across two serial runs and a 4-thread run.
//   5. Crash audit: kills checkpointed runs at randomized record indices,
//      resumes from the on-disk snapshot, and requires the resumed result to
//      be bit-identical to the uninterrupted run for every (app x kind) cell,
//      serial and 4-thread, with and without an armed FaultPlan; damaged
//      snapshots (truncation, CRC corruption) must degrade gracefully to
//      .prev and then to a cold start, with a populated RecoveryReport.
//   6. Serve audit: drives the multi-tenant serving loop (src/serve) through
//      three legs — (a) graceful drain under backpressure with full record
//      and session accounting (zero queued records, reconciled counters);
//      (b) kill/resume drills at three seeded ticks with session drills and
//      in-simulator faults armed, requiring byte-identical per-session
//      outcomes, fleet summaries and counters versus the uninterrupted
//      serve, at 1 and 4 threads; (c) a chaos soak with all six fault
//      classes armed per tenant (FaultPlan::for_session) in recover mode,
//      requiring every violation recovered and a bounded peak-RSS delta
//      (the RSS gate is skipped under ASan, whose shadow memory dwarfs it).
//   7. Storm audit: seeded storage-fault drills through the src/io VFS shim.
//      Every write-side fault class (EIO, ENOSPC mid-write, torn write,
//      rename failure, fsync loss) and read-side class (EIO, bit rot) is
//      armed in isolation against the snapshot envelope, the checkpoint
//      recovery chain (current -> .prev -> cold start), scrub/repair with
//      exact quarantine accounting, and the serving loop's degraded
//      checkpoint ledger (ckpt_attempted == ckpt_written + ckpt_degraded
//      with drain reconciliation intact under injected ENOSPC). The gate:
//      results stay bit-identical or cleanly cold-started — a damaged
//      envelope may be lost, never silently believed.
//   8. Lint audit: runs planaria-lint (tools/lint) over the source tree this
//      binary was built from — layering DAG, determinism bans, snapshot
//      pairing/round-trip coverage, contract coverage, hygiene, and the
//      interprocedural race-* / hot-* families (DESIGN.md §13). Any
//      unsuppressed finding fails the gate.
//
// Exit codes: 0 = clean, 1 = an audit check failed, 2 = self-test failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "check/contract.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "lint/lint.hpp"
#include "common/thread_pool.hpp"
#include "core/storage.hpp"
#include "core/storage_layout.hpp"
#include "fault/fault.hpp"
#include "io/vfs.hpp"
#include "serve/serve.hpp"
#include "sim/checkpoint.hpp"
#include "snapshot/snapshot.hpp"
#include "sim/simulator.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace {

using planaria::Cycle;
using planaria::kBlocksPerSegment;
using planaria::kChannels;
namespace check = planaria::check;
namespace core = planaria::core;
namespace fault = planaria::fault;
namespace io = planaria::io;
namespace serve = planaria::serve;
namespace snapshot = planaria::snapshot;
namespace layout = planaria::core::layout;
namespace sim = planaria::sim;
namespace trace = planaria::trace;

int g_failures = 0;

bool expect(bool ok, const std::string& what) {
  std::printf("  %-5s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
  return ok;
}

/// Allow measurement slack above the paper's synthesis number: the default
/// reproduction configuration lands a few percent under it, and a config
/// drifting past this bound has outgrown the hardware the paper costed.
constexpr double kBudgetSlack = 1.05;

/// Exact (bit-identical) SimResult comparison for the determinism stages:
/// SimResult::operator== is defaulted memberwise equality, doubles compared
/// with == on purpose — the contract is bit-identity, not numeric tolerance.
bool results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  return a == b;
}

/// The storage contract applied to one configuration: the field-by-field
/// breakdown must equal the component accounting bit for bit, and the
/// 4-channel total must stay inside the paper's budget.
void audit_storage(const core::StorageBreakdown& breakdown,
                   std::uint64_t component_bits_per_channel) {
  PLANARIA_ENSURE_MSG(
      kStorageBudget,
      breakdown.per_channel_bits() == component_bits_per_channel,
      "storage breakdown disagrees with the component accounting");
  PLANARIA_ENSURE_MSG(
      kStorageBudget,
      breakdown.total_kb(kChannels) <= layout::kPaperBudgetKb * kBudgetSlack,
      "metadata storage exceeds the paper's hardware budget");
}

/// Stage 1: the gate must notice a planted one-bit-per-entry drift.
bool self_test() {
  std::printf("self-test: injected storage-budget violation\n");
  const core::PlanariaConfig config;
  const std::uint64_t honest_bits =
      core::PlanariaPrefetcher(config).storage_bits();

  check::CountingScope scope;
  check::reset_violations();

  core::StorageBreakdown drifted = core::planaria_storage(config);
  drifted.items.front().bits_per_entry += 1;  // the planted bug
  audit_storage(drifted, honest_bits);

  const bool detected =
      check::violation_count(check::Category::kStorageBudget) > 0;
  expect(detected, "planted one-bit FT drift is detected");
  check::reset_violations();
  return detected;
}

/// Stage 2 helper: storage cross-check for one Planaria-family config.
void audit_planaria_storage(const std::string& label,
                            const core::PlanariaConfig& config) {
  const std::uint64_t before = check::total_violations();
  audit_storage(core::planaria_storage(config),
                core::PlanariaPrefetcher(config).storage_bits());
  char budget[32];
  std::snprintf(budget, sizeof budget, "%.1f", layout::kPaperBudgetKb);
  expect(check::total_violations() == before,
         label + ": breakdown == component bits and within " + budget +
             "KB budget");
}

void static_audit() {
  std::printf("static audit: registered configurations\n");
  check::CountingScope scope;
  check::reset_violations();

  // Geometry of the default configuration. validate() throws on violations
  // (non-power-of-two set counts, field overflow), so surviving it is the
  // check; the contracts below catch what validate() cannot see.
  const core::PlanariaConfig planaria_config;
  const sim::SimConfig sim_config;
  bool geometry_ok = true;
  try {
    planaria_config.validate();
    sim_config.validate();
  } catch (const std::exception& e) {
    std::printf("  default config rejected: %s\n", e.what());
    geometry_ok = false;
  }
  expect(geometry_ok, "default configs pass validate()");

  const auto sets = sim_config.cache.sets();
  expect(sets != 0 && (sets & (sets - 1)) == 0,
         "cache slice set count is a power of two");
  expect(planaria_config.slp.at_timeout <
             (Cycle{1} << layout::kAtTimeBits),
         "AT timeout fits the 20-bit last-access time field");
  expect(planaria_config.tlp.min_common_bits <= kBlocksPerSegment,
         "TLP similarity floor fits the 16-bit bitmap");

  // Field widths: the breakdown must carry exactly the documented widths.
  const auto breakdown = core::planaria_storage(planaria_config);
  bool widths_ok = breakdown.items.size() == 4 &&
                   breakdown.items[0].bits_per_entry == layout::kFtEntryBits &&
                   breakdown.items[1].bits_per_entry == layout::kAtEntryBits &&
                   breakdown.items[2].bits_per_entry == layout::kPtEntryBits &&
                   breakdown.items[3].bits_per_entry ==
                       layout::rpt_entry_bits(static_cast<std::uint64_t>(
                           planaria_config.tlp.rpt_entries));
  expect(widths_ok, "breakdown entry widths match storage_layout.hpp");

  // Storage contracts for each Planaria family member.
  audit_planaria_storage("planaria", planaria_config);
  core::PlanariaConfig slp_only = planaria_config;
  slp_only.enable_tlp = false;
  audit_planaria_storage("planaria-slp", slp_only);
  core::PlanariaConfig tlp_only = planaria_config;
  tlp_only.enable_slp = false;
  audit_planaria_storage("planaria-tlp", tlp_only);

  // Every registered kind instantiates and reports sane metadata storage
  // (prefetcher metadata must stay far below the cache it serves).
  const std::uint64_t sc_slice_bits = sim_config.cache.size_bytes * 8;
  for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
    const auto pf = sim::make_prefetcher_factory(kind)(0);
    const std::uint64_t bits = pf->storage_bits();
    expect(pf->name() != nullptr && bits < sc_slice_bits,
           std::string(sim::prefetcher_kind_name(kind)) + ": instantiates, " +
               std::to_string(bits) + " metadata bits < 1MB SC slice");
  }

  expect(check::total_violations() == 0,
         "no contract violations during the static audit");
  check::reset_violations();
}

/// One calibrated app plus one deliberately noisy randomized profile: the
/// calibrated stream exercises the learned-pattern paths, the randomized one
/// pushes occupancy/eviction corners the calibrated mixes rarely reach.
/// Shared by the replay and chaos stages.
std::vector<trace::AppProfile> audit_profiles(std::uint64_t seed) {
  trace::AppProfile fuzz = trace::paper_apps().front();
  fuzz.name = "fuzz";
  fuzz.seed = seed;
  fuzz.weight_irregular = 0.4;
  fuzz.weight_footprint = 0.3;
  fuzz.weight_neighbor = 0.2;
  fuzz.weight_stream = 0.1;
  fuzz.burstiness = 0.6;
  fuzz.footprint.mutate_p = 0.3;
  fuzz.neighbor.new_page_rate = 0.8;
  return {trace::paper_apps().front(), fuzz};
}

void replay_audit(std::uint64_t records, std::uint64_t seed) {
  std::printf("replay audit: %llu records/app, all kinds, contracts armed\n",
              static_cast<unsigned long long>(records));
  check::CountingScope scope;
  check::reset_violations();

  const std::vector<trace::AppProfile> profiles = audit_profiles(seed);
  planaria::common::ThreadPool pool(4);
  // Profile-level parallel generation (deterministic: each profile owns its
  // seeds); also exercises the generator under the pool for the TSan build.
  const auto traces = trace::generate_app_traces(profiles, records, &pool);
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto& app = profiles[p];
    const auto& trace_records = traces[p];
    for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
      const std::uint64_t before = check::total_violations();
      const auto result =
          sim::Simulator::run(sim::SimConfig{}, sim::make_prefetcher_factory(kind),
                              sim::prefetcher_kind_name(kind), trace_records);
      expect(check::total_violations() == before &&
                 result.demand_reads + result.demand_writes ==
                     trace_records.size(),
             app.name + " x " + result.prefetcher + ": replay clean");

      // Parallel path: same trace through the channel-sharded engine on a
      // thread pool must replay clean AND bit-identical to the serial run.
      const std::uint64_t before_par = check::total_violations();
      const auto par = sim::Simulator::run(
          sim::SimConfig{}, sim::make_prefetcher_factory(kind),
          sim::prefetcher_kind_name(kind), trace_records, &pool);
      expect(check::total_violations() == before_par &&
                 results_identical(result, par),
             app.name + " x " + result.prefetcher +
                 ": parallel replay clean and bit-identical");
    }
  }

  for (int i = 0; i < check::kCategoryCount; ++i) {
    const auto category = static_cast<check::Category>(i);
    const std::string name =
        std::string("contract.violations.") + check::category_name(category);
    std::printf("  %-50s %llu\n", name.c_str(),
                static_cast<unsigned long long>(check::violation_count(category)));
  }
  expect(check::total_violations() == 0,
         "no contract violations across all replays");
  check::reset_violations();
}

/// Injection rate per fault class, tuned so a 20k-record replay applies a
/// meaningful number of each fault without drowning the simulation.
double chaos_rate(fault::FaultClass fault_class) {
  switch (fault_class) {
    case fault::FaultClass::kTraceCorruption: return 0.002;
    case fault::FaultClass::kSlpPatternFlip: return 0.01;
    case fault::FaultClass::kTlpPatternFlip: return 0.01;
    case fault::FaultClass::kPrefetchDrop: return 0.05;
    case fault::FaultClass::kPrefetchDelay: return 0.05;
    case fault::FaultClass::kDramStall: return 0.001;
    case fault::FaultClass::kCount: break;
  }
  return 0.0;
}

/// Everything one chaos cell produces: the simulation result plus the
/// contract-layer tallies accumulated during that run.
struct ChaosOutcome {
  sim::SimResult result;
  std::uint64_t violations = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t timing_violations = 0;
  std::uint64_t occupancy_violations = 0;
};

ChaosOutcome run_chaos_cell(const sim::SimConfig& config,
                            sim::PrefetcherKind kind,
                            const trace::TraceBatch& records,
                            planaria::common::ThreadPool* pool) {
  check::reset_violations();
  check::reset_recoveries();
  ChaosOutcome o;
  o.result =
      sim::Simulator::run(config, sim::make_prefetcher_factory(kind),
                          sim::prefetcher_kind_name(kind), records, pool);
  o.violations = check::total_violations();
  o.recoveries = check::total_recoveries();
  o.timing_violations =
      check::violation_count(check::Category::kTimingMonotonicity);
  o.occupancy_violations =
      check::violation_count(check::Category::kTableOccupancy);
  return o;
}

/// The per-class manifestation rule the chaos gate asserts. Trace corruption
/// regresses an arrival strictly, so it fires the time-order contract exactly
/// once per applied fault. An SLP flip only manifests when it drags a pattern
/// below the promotion threshold AND the page triggers an issue before the
/// entry is relearned, hence <=. The remaining classes shift timing or drop
/// work without breaking any structural invariant, so they must stay silent.
bool chaos_counters_ok(fault::FaultClass fault_class, const ChaosOutcome& o) {
  if (o.recoveries != o.violations) return false;
  switch (fault_class) {
    case fault::FaultClass::kTraceCorruption:
      return o.violations == o.timing_violations &&
             o.timing_violations == o.result.fault_trace_corruptions;
    case fault::FaultClass::kSlpPatternFlip:
      return o.violations == o.occupancy_violations &&
             o.occupancy_violations <= o.result.fault_slp_flips;
    default:
      return o.violations == 0;
  }
}

void chaos_audit(std::uint64_t records, std::uint64_t seed) {
  std::printf(
      "chaos audit: %llu records/app, every kind x fault class, recover mode\n",
      static_cast<unsigned long long>(records));

  const std::vector<trace::AppProfile> profiles = audit_profiles(seed);
  planaria::common::ThreadPool pool(4);
  const auto traces = trace::generate_app_traces(profiles, records, &pool);

  // kRecover for the whole stage: a violation under chaos is expected and
  // must be recovered, not aborted on. Counters are reset per cell inside
  // run_chaos_cell, so the scope only sets the mode.
  check::RecoveryScope scope;

  for (int c = 0; c < fault::kFaultClassCount; ++c) {
    const auto fault_class = static_cast<fault::FaultClass>(c);
    sim::SimConfig config;
    config.fault =
        fault::FaultPlan::single(fault_class, chaos_rate(fault_class), seed);

    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const auto& app = profiles[p];
      const auto& trace_records = traces[p];
      for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
        const auto o = run_chaos_cell(config, kind, trace_records, nullptr);
        const std::string cell = app.name + " x " +
                                 sim::prefetcher_kind_name(kind) + " / " +
                                 fault::fault_class_name(fault_class);
        const bool complete = o.result.demand_reads + o.result.demand_writes ==
                              trace_records.size();
        if (!expect(complete && chaos_counters_ok(fault_class, o),
                    cell + ": completes, counters reconcile (" +
                        std::to_string(o.result.fault_injected_total) +
                        " injected, " + std::to_string(o.violations) +
                        " violations, " + std::to_string(o.recoveries) +
                        " recoveries)")) {
          continue;
        }

        // Determinism leg, flagship kind only (cost): the same seed must
        // reproduce the identical result — fault counters included — on a
        // second serial run and on the 4-thread channel-sharded path.
        if (kind != sim::PrefetcherKind::kPlanaria) continue;
        // The flagship must actually exercise the armed class (vacuous
        // counter equalities don't gate anything); skip the floor only for
        // tiny --records smoke runs.
        if (records >= 5000) {
          expect(o.result.fault_injected_total > 0,
                 cell + ": armed class injected at least one fault");
        }
        const auto again =
            run_chaos_cell(config, kind, trace_records, nullptr);
        const auto threaded =
            run_chaos_cell(config, kind, trace_records, &pool);
        expect(results_identical(o.result, again.result) &&
                   o.violations == again.violations &&
                   o.recoveries == again.recoveries,
               cell + ": second run reproduces result and counters");
        expect(results_identical(o.result, threaded.result) &&
                   o.violations == threaded.violations &&
                   o.recoveries == threaded.recoveries,
               cell + ": 4-thread run reproduces result and counters");
      }
    }
  }
  check::reset_violations();
  check::reset_recoveries();
}

/// In-process crash model for the crash-recovery audit. Drives a simulator
/// exactly the way run_checkpointed would — full `every`-record chunks with a
/// checkpoint after each — then feeds the partial chunk past the last
/// checkpoint WITHOUT checkpointing and abandons the instance (finish() is
/// never called). That is what SIGKILL at record `kill_at` leaves behind: a
/// last-good snapshot on disk, all in-memory progress since it lost.
void crash_at(const sim::SimConfig& config, sim::PrefetcherKind kind,
              const trace::TraceBatch& records,
              const sim::CheckpointConfig& ckpt, std::uint64_t kill_at,
              std::uint64_t fingerprint, planaria::common::ThreadPool* pool) {
  sim::Simulator doomed(config, sim::make_prefetcher_factory(kind),
                        sim::prefetcher_kind_name(kind));
  std::uint64_t cursor = 0;
  while (cursor + ckpt.every <= kill_at) {
    doomed.run_sharded(records, cursor, cursor + ckpt.every, pool);
    cursor += ckpt.every;
    sim::write_checkpoint(doomed, ckpt, cursor, fingerprint);
  }
  if (cursor < kill_at) {
    doomed.run_sharded(records, cursor, kill_at, pool);
  }
}

void scrub_snapshots(const sim::CheckpointConfig& ckpt) {
  std::error_code ec;
  std::filesystem::remove(ckpt.current_path(), ec);
  std::filesystem::remove(ckpt.prev_path(), ec);
}

/// Flips one payload byte in a snapshot file; the envelope CRC must catch it.
void corrupt_snapshot(const std::string& path) {
  // lint: suppress(io-raw-stream) this drill damages bytes in place on purpose; the VFS refuses to author torn envelopes
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(40);  // past the 24-byte envelope header, inside the payload
  char byte = 0;
  f.get(byte);
  f.seekp(40);
  f.put(static_cast<char>(byte ^ 0x40));
}

/// Stage 5: crash-recovery audit. For every (app x kind) cell, kill the run
/// at randomized record indices (deterministic xoshiro streams), restart from
/// the on-disk snapshot via run_checkpointed, and require the resumed
/// SimResult to be bit-identical to the uninterrupted run — serial and
/// 4-thread, zero-fault and with an armed FaultPlan. Then, on the flagship
/// kind, damage the snapshots on purpose (truncation, CRC corruption, both
/// generations) and require graceful degradation: fall back to .prev, else
/// cold start, with a populated RecoveryReport — never a crash, never a
/// silently wrong result.
void crash_audit(std::uint64_t records, std::uint64_t seed) {
  std::printf(
      "crash audit: %llu records/app, kill/resume every kind, "
      "bit-identical gate\n",
      static_cast<unsigned long long>(records));
  // Recover mode for the whole stage: the armed-fault legs deliberately fire
  // the time-order contract (trace corruption), which must recover, not
  // abort. The closing gate requires every violation to have been recovered.
  check::RecoveryScope scope;
  check::reset_violations();
  check::reset_recoveries();

  const std::vector<trace::AppProfile> profiles = audit_profiles(seed);
  planaria::common::ThreadPool pool(4);
  const auto traces = trace::generate_app_traces(profiles, records, &pool);

  sim::CheckpointConfig ckpt;
  std::error_code ec;
  const auto dir =
      std::filesystem::temp_directory_path() / "planaria-crash-audit";
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  ckpt.dir = dir.string();
  // A deliberately trace-misaligned interval so kills land both before the
  // first checkpoint (cold-start resume) and between later ones.
  ckpt.every = std::max<std::uint64_t>(1, records / 7);
  ckpt.label = "audit";

  // Armed leg: timing-shifting classes plus trace corruption, so the resumed
  // run must reproduce the injector streams and the recovery path mid-flight.
  fault::FaultPlan armed;
  armed.seed = seed;
  armed.rate[static_cast<int>(fault::FaultClass::kTraceCorruption)] = 0.002;
  armed.rate[static_cast<int>(fault::FaultClass::kPrefetchDrop)] = 0.05;
  armed.rate[static_cast<int>(fault::FaultClass::kDramStall)] = 0.001;

  std::uint64_t cell_index = 0;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto& app = profiles[p];
    const auto& trace_records = traces[p];
    const std::uint64_t n = trace_records.size();
    if (n < 2) continue;
    const std::uint64_t fingerprint = sim::trace_fingerprint(trace_records);
    for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
      for (const bool with_faults : {false, true}) {
        sim::SimConfig config;
        if (with_faults) config.fault = armed;
        for (planaria::common::ThreadPool* cell_pool :
             {static_cast<planaria::common::ThreadPool*>(nullptr), &pool}) {
          const std::string cell =
              app.name + " x " + sim::prefetcher_kind_name(kind) +
              (with_faults ? " / faults" : "") +
              (cell_pool != nullptr ? " / 4-thread" : " / serial");
          scrub_snapshots(ckpt);
          const auto base = sim::Simulator::run(
              config, sim::make_prefetcher_factory(kind),
              sim::prefetcher_kind_name(kind), trace_records, cell_pool);

          planaria::Rng kills(seed ^ (++cell_index * 0x9E3779B97F4A7C15ull));
          bool identical = true;
          bool outcomes_ok = true;
          for (int drill = 0; drill < 3; ++drill) {
            scrub_snapshots(ckpt);
            const std::uint64_t kill_at = 1 + kills.next_below(n - 1);
            crash_at(config, kind, trace_records, ckpt, kill_at, fingerprint,
                     cell_pool);
            sim::RecoveryReport rep;
            const auto resumed = sim::run_checkpointed(
                config, sim::make_prefetcher_factory(kind),
                sim::prefetcher_kind_name(kind), trace_records, ckpt,
                cell_pool, &rep);
            identical = identical && resumed == base;
            // A kill past the first boundary must resume from the snapshot;
            // an earlier kill finds no snapshot and cold-starts quietly.
            const std::uint64_t expect_cursor =
                kill_at / ckpt.every * ckpt.every;
            outcomes_ok =
                outcomes_ok &&
                (expect_cursor > 0
                     ? rep.outcome == sim::RecoveryReport::Outcome::kResumed &&
                           rep.resumed_cursor == expect_cursor
                     : rep.outcome ==
                           sim::RecoveryReport::Outcome::kColdStart) &&
                rep.notes.empty();
          }
          expect(identical && outcomes_ok,
                 cell + ": 3 kill/resume drills bit-identical");
        }
      }
    }
  }

  // Corruption drills (flagship kind, serial, zero-fault): damage the
  // snapshot generations on purpose and require graceful degradation.
  const auto& flagship_records = traces[0];
  const std::uint64_t n = flagship_records.size();
  const std::uint64_t kill_at = 3 * ckpt.every;  // leaves .snap and .prev
  if (kill_at < n) {
    const std::uint64_t fingerprint =
        sim::trace_fingerprint(flagship_records);
    const sim::SimConfig config;
    const auto kind = sim::PrefetcherKind::kPlanaria;
    const auto base = sim::Simulator::run(
        config, sim::make_prefetcher_factory(kind),
        sim::prefetcher_kind_name(kind), flagship_records, nullptr);
    const auto drill = [&](const char* what, auto&& damage,
                           sim::RecoveryReport::Outcome want,
                           std::size_t want_notes) {
      scrub_snapshots(ckpt);
      crash_at(config, kind, flagship_records, ckpt, kill_at, fingerprint,
               nullptr);
      damage();
      sim::RecoveryReport rep;
      const auto resumed = sim::run_checkpointed(
          config, sim::make_prefetcher_factory(kind),
          sim::prefetcher_kind_name(kind), flagship_records, ckpt, nullptr,
          &rep);
      expect(resumed == base && rep.outcome == want &&
                 rep.notes.size() == want_notes,
             std::string("corruption drill: ") + what + " -> " +
                 sim::recovery_outcome_name(want) + ", bit-identical");
    };
    drill("truncated current snapshot",
          [&] {
            std::filesystem::resize_file(
                ckpt.current_path(),
                std::filesystem::file_size(ckpt.current_path()) / 2);
          },
          sim::RecoveryReport::Outcome::kFellBack, 1);
    drill("CRC-corrupt current snapshot",
          [&] { corrupt_snapshot(ckpt.current_path()); },
          sim::RecoveryReport::Outcome::kFellBack, 1);
    drill("both generations corrupt",
          [&] {
            corrupt_snapshot(ckpt.current_path());
            std::filesystem::resize_file(ckpt.prev_path(), 10);
          },
          sim::RecoveryReport::Outcome::kColdStart, 2);
  }

  expect(check::total_recoveries() == check::total_violations(),
         "every contract violation during crash drills was recovered");
  std::filesystem::remove_all(dir, ec);
  check::reset_violations();
  check::reset_recoveries();
}

// ---------------------------------------------------------------------------
// Stage 6: serve audit (multi-tenant serving loop, src/serve)
// ---------------------------------------------------------------------------

/// Peak RSS high-water mark in bytes, 0 where unavailable.
std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

constexpr bool asan_enabled() {
#if defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// A mixed fleet: three apps, two prefetcher kinds, two device labels, so
/// every GroupedSummary key path is exercised.
std::vector<serve::SessionSpec> audit_fleet(std::size_t n,
                                            std::uint64_t seed) {
  const char* apps[] = {"HoK", "Fort", "TikT"};
  const char* devices[] = {"phone", "tablet"};
  std::vector<serve::SessionSpec> fleet;
  for (std::size_t i = 0; i < n; ++i) {
    serve::SessionSpec spec;
    spec.app = apps[i % 3];
    spec.kind = i % 2 == 0 ? sim::PrefetcherKind::kPlanaria
                           : sim::PrefetcherKind::kStride;
    spec.user_seed = seed + i;
    spec.device = devices[i % 2];
    fleet.push_back(spec);
  }
  return fleet;
}

/// Terminal-state partition and record conservation for a finished server.
bool serve_counters_reconcile(const serve::SessionServer& server) {
  const serve::ServeCounters& c = server.counters();
  return c.submitted == c.admitted + c.sessions_rejected &&
         c.admitted == c.sessions_completed + c.sessions_drained +
                           c.sessions_shed_retry + c.sessions_shed_deadline &&
         c.ingested_records == c.fed_records + c.shed_queued_records &&
         server.queued_records() == 0;
}

void serve_audit(std::uint64_t records, std::uint64_t seed) {
  std::printf(
      "serve audit: serving loop — drain, kill/resume x threads, chaos "
      "soak\n");
  // Session drills deliberately interrupt quanta; armed in-simulator fault
  // classes fire contract violations that must recover, not abort.
  check::RecoveryScope scope;
  check::reset_violations();
  check::reset_recoveries();

  const std::uint64_t per_session = std::max<std::uint64_t>(records / 4, 2000);
  serve::ServeConfig base;
  base.records_per_session = per_session;
  base.max_live_sessions = 4;
  base.queue_capacity = 1024;
  base.ingest_per_tick = 512;
  base.quantum_records = 256;
  base.drill_seed = seed;

  // Leg (a): graceful drain under backpressure. A drain requested mid-serve
  // must reject every pending session, flush every queued record, finalize
  // partial results, and leave the accounting identities intact.
  {
    serve::ServeConfig config = base;
    config.max_live_sessions = 2;    // force admission defers + rejections
    config.queue_capacity = 256;     // force ingest defers
    config.quantum_records = 64;     // queue drains slower than it fills
    serve::SessionServer server(config, 1);
    server.add_fleet(audit_fleet(6, seed));
    for (int i = 0; i < 4; ++i) server.tick();
    server.request_drain();
    server.serve();
    const serve::ServeCounters& c = server.counters();
    expect(server.finished() && server.queued_records() == 0,
           "drain: queues flushed to zero");
    expect(c.sessions_rejected == 4 && c.sessions_drained == 2,
           "drain: pending sessions rejected, live sessions drained (" +
               std::to_string(c.sessions_rejected) + " rejected, " +
               std::to_string(c.sessions_drained) + " drained)");
    expect(c.admission_defers > 0 && c.ingest_defers > 0,
           "drain: backpressure was exercised and counted (" +
               std::to_string(c.admission_defers) + " admission, " +
               std::to_string(c.ingest_defers) + " ingest defers)");
    expect(serve_counters_reconcile(server),
           "drain: record and session accounting reconciles");
  }

  // Leg (b): kill/resume drills. One uninterrupted reference serve, then
  // three seeded kill ticks x {1, 4} threads, each killed server abandoned
  // mid-tick-loop and a fresh server resumed from its checkpoints. Every
  // resumed serve must finish byte-identical — per-session outcomes (their
  // SimResults compared with defaulted operator==, doubles included), the
  // fleet summaries, and the full counter block.
  {
    std::error_code ec;
    const auto root =
        std::filesystem::temp_directory_path() / "planaria-serve-audit";
    std::filesystem::remove_all(root, ec);

    serve::ServeConfig config = base;
    config.session_fault_rate = 0.05;  // drills armed during the kill matrix
    config.max_attempts = 64;          // drills delay, never shed
    config.sim.fault.rate[static_cast<int>(
        fault::FaultClass::kTraceCorruption)] = 0.001;
    config.sim.fault.rate[static_cast<int>(fault::FaultClass::kDramStall)] =
        0.001;
    config.sim.fault.seed = seed;
    config.checkpoint_every_ticks = 3;

    const auto serve_dir = [&](const std::string& name) {
      const auto dir = root / name;
      std::filesystem::create_directories(dir, ec);
      return dir.string();
    };

    serve::ServeConfig ref_config = config;
    ref_config.checkpoint_dir = serve_dir("reference");
    serve::SessionServer reference(ref_config, 1);
    reference.add_fleet(audit_fleet(8, seed));
    reference.serve();
    expect(serve_counters_reconcile(reference) &&
               reference.counters().sessions_completed == 8,
           "kill/resume: uninterrupted reference completes all sessions");

    planaria::Rng kill_rng(seed ^ 0x5E55'A0D1ull);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (int drill = 0; drill < 3; ++drill) {
        // Kill somewhere in the first ~3/4 of the reference's tick span so
        // every drill leaves real work to redo after resume.
        const std::uint64_t span = reference.current_tick();
        const std::uint64_t kill_tick =
            1 + kill_rng.next_below(std::max<std::uint64_t>(span * 3 / 4, 2));
        serve::ServeConfig drill_config = config;
        drill_config.checkpoint_dir = serve_dir(
            "drill-" + std::to_string(threads) + "-" + std::to_string(drill));
        {
          serve::SessionServer victim(drill_config, threads);
          victim.add_fleet(audit_fleet(8, seed));
          for (std::uint64_t t = 0; t < kill_tick && victim.tick(); ++t) {
          }
        }  // destruction without drain or final checkpoint IS the kill
        serve::SessionServer resumed(drill_config, threads);
        resumed.add_fleet(audit_fleet(8, seed));
        resumed.serve();
        const std::string label = "kill/resume: tick " +
                                  std::to_string(kill_tick) + ", " +
                                  std::to_string(threads) + " thread(s)";
        expect(resumed.outcomes() == reference.outcomes(),
               label + " — per-session outcomes byte-identical");
        expect(resumed.summary() == reference.summary(),
               label + " — fleet summaries byte-identical");
        expect(resumed.counters() == reference.counters(),
               label + " — counters byte-identical");
        expect(resumed.recovery().resumed || kill_tick < 3,
               label + " — resume path actually engaged");
      }
    }
    std::filesystem::remove_all(root, ec);
  }

  // Leg (c): chaos soak. All six fault classes armed per tenant through
  // FaultPlan::for_session, plus serving-loop drills, over a fleet larger
  // than the admission budget. The gate: every session still completes,
  // every contract violation is recovered, the accounting reconciles, and
  // the soak's peak-RSS growth stays bounded (sessions must release their
  // trace/simulator state as they retire).
  {
    const std::uint64_t rss_before = peak_rss_bytes();
    serve::ServeConfig config = base;
    config.session_fault_rate = 0.02;
    config.max_attempts = 64;
    config.sim.fault.seed = seed ^ 0xC4A05;
    for (int c = 0; c < fault::kFaultClassCount; ++c) {
      config.sim.fault.rate[c] =
          chaos_rate(static_cast<fault::FaultClass>(c));
    }
    serve::SessionServer server(config, 4);
    server.add_fleet(audit_fleet(12, seed ^ 1));
    server.serve();
    const serve::ServeCounters& c = server.counters();
    expect(c.sessions_completed == 12,
           "soak: all 12 sessions complete under all six fault classes (" +
               std::to_string(c.drills_injected) + " drills, " +
               std::to_string(c.backoff_events) + " backoffs)");
    expect(serve_counters_reconcile(server),
           "soak: record and session accounting reconciles");
    expect(check::total_recoveries() == check::total_violations(),
           "soak: every contract violation was recovered (" +
               std::to_string(check::total_violations()) + " violations)");
    const std::uint64_t rss_after = peak_rss_bytes();
    constexpr std::uint64_t kSoakRssCeiling = 768ull << 20;
    if (asan_enabled() || rss_before == 0) {
      std::printf("  skip  soak: peak-RSS ceiling (sanitizer build or no "
                  "rusage)\n");
    } else {
      expect(rss_after - rss_before < kSoakRssCeiling,
             "soak: peak-RSS growth " +
                 std::to_string((rss_after - rss_before) >> 20) +
                 "MB stays under " +
                 std::to_string(kSoakRssCeiling >> 20) + "MB");
    }
  }

  check::reset_violations();
  check::reset_recoveries();
}

// ---------------------------------------------------------------------------
// Stage 7: storm audit (storage-fault drills through the src/io VFS)
// ---------------------------------------------------------------------------

/// Seeded junk payload for the envelope-torture leg; every trial writes a
/// distinct image so a stale generation can never masquerade as a fresh one.
std::vector<std::uint8_t> storm_payload(std::uint64_t seed, std::size_t size) {
  planaria::Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

/// crash_at with a storage storm blowing: checkpoint writes may fail under
/// the armed shim, and a real checkpointed run degrades (counts the loss,
/// keeps simulating) instead of dying — so the doomed instance does the same.
/// Returns how many checkpoints the storm swallowed outright; torn/fsync-loss
/// damage "succeeds" here and is only caught by the resume-side CRC.
std::uint64_t storm_crash_at(const sim::SimConfig& config,
                             sim::PrefetcherKind kind,
                             const trace::TraceBatch& records,
                             const sim::CheckpointConfig& ckpt,
                             std::uint64_t kill_at,
                             std::uint64_t fingerprint) {
  sim::Simulator doomed(config, sim::make_prefetcher_factory(kind),
                        sim::prefetcher_kind_name(kind));
  std::uint64_t lost = 0;
  std::uint64_t cursor = 0;
  while (cursor + ckpt.every <= kill_at) {
    doomed.run_sharded(records, cursor, cursor + ckpt.every, nullptr);
    cursor += ckpt.every;
    try {
      sim::write_checkpoint(doomed, ckpt, cursor, fingerprint);
    } catch (const snapshot::SnapshotError&) {
      ++lost;
    }
  }
  if (cursor < kill_at) {
    doomed.run_sharded(records, cursor, kill_at, nullptr);
  }
  return lost;
}

void storm_remove_generations(const sim::CheckpointConfig& ckpt) {
  for (const std::string& path : {ckpt.current_path(), ckpt.prev_path()}) {
    io::remove_file(path);
    io::remove_file(path + ".quarantine");
  }
}

/// Stage 7: storm audit. Leg (a) tortures the snapshot envelope itself: for
/// every io fault class in isolation, a run of seeded write/read drills must
/// end each trial in exactly one of three states — the new payload read back
/// byte-identical, a *detected* failure (IoError on the write, SnapshotError
/// on the read-back), or the previous complete generation still in place.
/// A read that returns wrong bytes without throwing is the one outcome that
/// fails the gate: zero silent corruption. Leg (b) drives the checkpoint
/// recovery chain under each storm class: kill a checkpointed run mid-flight
/// with the shim armed, resume clean, and require the resumed result to be
/// bit-identical to the uninterrupted run whether recovery lands on current,
/// .prev, or a cold start; read-side storms (EIO, bit rot) at rate 1.0 must
/// degrade to a cold start with both rejections documented. Leg (c) checks
/// scrub/repair bookkeeping to the exact count, quarantine files included.
/// Leg (d) serves a fleet under injected ENOSPC: every session completes,
/// drain accounting reconciles, and the degraded-checkpoint ledger balances.
void storm_audit(std::uint64_t records, std::uint64_t seed) {
  std::printf(
      "storm audit: %llu records, seeded storage faults over every write "
      "site\n",
      static_cast<unsigned long long>(records));

  std::error_code ec;
  const auto dir =
      std::filesystem::temp_directory_path() / "planaria-storm-audit";
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);

  // Leg (a): envelope torture, one class at a time.
  {
    const std::string path = (dir / "torture.snap").string();
    for (int c = 0; c < io::kIoFaultClassCount; ++c) {
      const auto fault_class = static_cast<io::IoFaultClass>(c);
      io::remove_file(path);
      io::remove_file(path + ".tmp");
      io::IoFaultInjector shim(
          io::IoFaultPlan::single(fault_class, 0.6, seed ^ (0x570B + c)));
      io::ScopedFaultInjector arm(&shim);
      std::vector<std::uint8_t> good;  // last payload fully on disk
      bool ok = true;
      std::uint64_t detected = 0;
      for (int t = 0; t < 32; ++t) {
        const auto payload =
            storm_payload(seed ^ (c * 131ull + t), 64 + t * 7);
        bool wrote = false;
        try {
          snapshot::write_file(path, payload);
          wrote = true;
        } catch (const snapshot::SnapshotError&) {
          ++detected;  // EIO / ENOSPC / rename failure, surfaced not dropped
        }
        try {
          const auto back = snapshot::read_file(path);
          // A read that *returns* must return a complete generation: the
          // fresh payload after a clean write, the previous one after a
          // failed write that left the old file in place.
          ok = ok && back == (wrote ? payload : good);
          if (wrote) good = payload;
        } catch (const snapshot::SnapshotError&) {
          ++detected;  // torn write, lost fsync suffix, bit rot, read EIO
        }
      }
      const bool stormed = shim.total_injected() > 0;
      expect(ok && stormed && detected >= shim.total_injected(),
             std::string(io::io_fault_class_name(fault_class)) +
                 ": 32 envelope drills, " +
                 std::to_string(shim.total_injected()) + " injected, " +
                 std::to_string(detected) +
                 " detected, zero silent corruption");
    }
  }

  // Legs (b) and (c) run against a real checkpointed simulation.
  const std::vector<trace::AppProfile> profiles = audit_profiles(seed);
  const auto traces = trace::generate_app_traces(profiles, records);
  const auto& trace_records = traces[0];
  const std::uint64_t n = trace_records.size();
  sim::CheckpointConfig ckpt;
  ckpt.dir = (dir / "ckpt").string();
  std::filesystem::create_directories(ckpt.dir, ec);
  ckpt.every = std::max<std::uint64_t>(1, records / 7);
  ckpt.label = "storm";
  const std::uint64_t kill_at = 3 * ckpt.every;  // leaves .snap and .prev

  if (kill_at < n) {
    const std::uint64_t fingerprint = sim::trace_fingerprint(trace_records);
    const sim::SimConfig config;
    const auto kind = sim::PrefetcherKind::kPlanaria;
    const auto base = sim::Simulator::run(
        config, sim::make_prefetcher_factory(kind),
        sim::prefetcher_kind_name(kind), trace_records, nullptr);

    // Leg (b), write-side: storm while checkpointing, resume in calm
    // weather. Whatever the storm did to the generations, the resumed result
    // must be bit-identical — recovered from current, .prev, or a cold
    // start; damage is visible in the RecoveryReport, never in the result.
    for (const auto fault_class :
         {io::IoFaultClass::kWriteError, io::IoFaultClass::kEnospc,
          io::IoFaultClass::kTornWrite, io::IoFaultClass::kRenameFail,
          io::IoFaultClass::kFsyncLoss}) {
      storm_remove_generations(ckpt);
      std::uint64_t lost = 0;
      std::uint64_t applied = 0;
      {
        io::IoFaultInjector shim(io::IoFaultPlan::single(
            fault_class, 0.5, seed ^ (0xCA57ull + static_cast<int>(fault_class))));
        io::ScopedFaultInjector arm(&shim);
        lost = storm_crash_at(config, kind, trace_records, ckpt, kill_at,
                              fingerprint);
        applied = shim.total_injected();
      }
      sim::RecoveryReport rep;
      const auto resumed = sim::run_checkpointed(
          config, sim::make_prefetcher_factory(kind),
          sim::prefetcher_kind_name(kind), trace_records, ckpt, nullptr,
          &rep);
      // A degraded recovery must be accounted somewhere loud: either the
      // write already failed in-flight (counted in `lost` — ENOSPC and
      // rename failures leave no current at all, so resume quietly falls
      // back) or the resume rejected a damaged candidate with a note (torn
      // writes and lost fsync suffixes "succeed" and are only caught by the
      // envelope CRC at read time).
      const bool chain_ok =
          rep.outcome == sim::RecoveryReport::Outcome::kResumed
              ? true
              : !rep.notes.empty() || lost > 0;
      expect(resumed == base && chain_ok && applied > 0,
             std::string(io::io_fault_class_name(fault_class)) +
                 " storm: kill/resume bit-identical via " +
                 sim::recovery_outcome_name(rep.outcome) + " (" +
                 std::to_string(applied) + " injected, " +
                 std::to_string(lost) + " checkpoints lost)");
    }

    // Leg (b), read-side: checkpoints land intact, the *resume* reads are
    // stormed at rate 1.0 — every candidate must be rejected with a note
    // (the CRC envelope catches a single flipped bit) and the run must
    // degrade to a clean cold start, still bit-identical.
    for (const auto fault_class :
         {io::IoFaultClass::kReadError, io::IoFaultClass::kBitRot}) {
      storm_remove_generations(ckpt);
      storm_crash_at(config, kind, trace_records, ckpt, kill_at, fingerprint);
      io::IoFaultInjector shim(io::IoFaultPlan::single(
          fault_class, 1.0, seed ^ (0xB17ull + static_cast<int>(fault_class))));
      sim::RecoveryReport rep;
      std::uint64_t applied = 0;
      {
        io::ScopedFaultInjector arm(&shim);
        const auto resumed = sim::run_checkpointed(
            config, sim::make_prefetcher_factory(kind),
            sim::prefetcher_kind_name(kind), trace_records, ckpt, nullptr,
            &rep);
        applied = shim.injected(fault_class);
        expect(resumed == base &&
                   rep.outcome == sim::RecoveryReport::Outcome::kColdStart &&
                   rep.notes.size() == 2 && applied >= 2,
               std::string(io::io_fault_class_name(fault_class)) +
                   " storm at resume: both generations rejected, cold start "
                   "bit-identical");
      }
    }

    // Leg (c): scrub/repair bookkeeping to the exact count. Corrupt current,
    // scrub: the bad envelope is quarantined (never deleted) and rebuilt
    // from .prev, so resume lands on .prev's generation via a repaired
    // current — then a double-corruption scrub must quarantine both and the
    // resume must cold-start.
    {
      storm_remove_generations(ckpt);
      storm_crash_at(config, kind, trace_records, ckpt, kill_at, fingerprint);
      corrupt_snapshot(ckpt.current_path());
      const sim::ScrubReport scrub = sim::scrub_checkpoints(ckpt);
      expect(scrub.scanned == 2 && scrub.intact == 1 &&
                 scrub.quarantined == 1 && scrub.repaired == 1 &&
                 scrub.missing == 0 &&
                 scrub.scanned == scrub.intact + scrub.quarantined &&
                 io::exists(ckpt.current_path() + ".quarantine"),
             "scrub: corrupt current quarantined and repaired from .prev");
      sim::RecoveryReport rep;
      const auto resumed = sim::run_checkpointed(
          config, sim::make_prefetcher_factory(kind),
          sim::prefetcher_kind_name(kind), trace_records, ckpt, nullptr,
          &rep);
      expect(resumed == base &&
                 rep.outcome == sim::RecoveryReport::Outcome::kResumed &&
                 rep.resumed_cursor == kill_at - ckpt.every,
             "scrub: resume rides the repaired generation, bit-identical");

      storm_remove_generations(ckpt);
      storm_crash_at(config, kind, trace_records, ckpt, kill_at, fingerprint);
      corrupt_snapshot(ckpt.current_path());
      corrupt_snapshot(ckpt.prev_path());
      const sim::ScrubReport both = sim::scrub_checkpoints(ckpt);
      expect(both.scanned == 2 && both.intact == 0 && both.quarantined == 2 &&
                 both.repaired == 0 && both.missing == 0,
             "scrub: double corruption quarantines both, repairs none");
      sim::RecoveryReport cold;
      const auto restarted = sim::run_checkpointed(
          config, sim::make_prefetcher_factory(kind),
          sim::prefetcher_kind_name(kind), trace_records, ckpt, nullptr,
          &cold);
      expect(restarted == base &&
                 cold.outcome == sim::RecoveryReport::Outcome::kColdStart,
             "scrub: nothing left to repair -> clean cold start");
    }
  }

  // Leg (d): the serving loop under injected ENOSPC. Checkpoint attempts
  // degrade — they never shed a session and never crash the server — and the
  // drain ledger must balance on both identities: the session partition and
  // ckpt_attempted == ckpt_written + ckpt_degraded.
  {
    const auto root = dir / "serve";
    std::filesystem::create_directories(root, ec);
    serve::ServeConfig config;
    config.records_per_session = std::max<std::uint64_t>(records / 4, 2000);
    config.max_live_sessions = 4;
    config.queue_capacity = 1024;
    config.ingest_per_tick = 512;
    config.quantum_records = 256;
    config.drill_seed = seed;
    config.checkpoint_every_ticks = 2;
    config.checkpoint_dir = root.string();
    io::IoFaultInjector shim(io::IoFaultPlan::single(
        io::IoFaultClass::kEnospc, 0.3, seed ^ 0x5707));
    io::ScopedFaultInjector arm(&shim);
    serve::SessionServer server(config, 1);
    server.add_fleet(audit_fleet(8, seed));
    server.serve();
    const serve::ServeCounters& c = server.counters();
    expect(c.sessions_completed == 8,
           "storm serve: all 8 sessions complete under ENOSPC");
    expect(serve_counters_reconcile(server),
           "storm serve: drain accounting reconciles");
    expect(c.ckpt_attempted == c.ckpt_written + c.ckpt_degraded &&
               c.ckpt_degraded > 0 && shim.injected(io::IoFaultClass::kEnospc) > 0,
           "storm serve: checkpoint ledger balances (" +
               std::to_string(c.ckpt_attempted) + " attempted = " +
               std::to_string(c.ckpt_written) + " written + " +
               std::to_string(c.ckpt_degraded) + " degraded)");
    expect(!server.recovery().notes.empty(),
           "storm serve: degraded checkpoints are documented, not silent");
  }

  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Stage 8: lint audit
// ---------------------------------------------------------------------------

/// Runs planaria-lint in-process over the tree this binary was compiled from
/// (PLANARIA_AUDIT_SOURCE_ROOT is baked in by CMake). A rebuilt binary always
/// audits its own sources; stale trees require a rebuild, which is the point.
void lint_audit() {
  std::printf("[lint audit] root=%s\n", PLANARIA_AUDIT_SOURCE_ROOT);
  namespace lint = planaria::lint;
  lint::Options options;
  options.root = PLANARIA_AUDIT_SOURCE_ROOT;
  try {
    const lint::Report report = lint::run_lint(options);
    for (const lint::Finding& f : report.findings) {
      std::printf("  %s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
    expect(report.files_scanned > 0, "lint scanned the source tree");
    expect(report.clean(),
           "no unsuppressed lint findings (" +
               std::to_string(report.findings.size()) + " active, " +
               std::to_string(report.suppressed.size()) + " suppressed)");
  } catch (const std::exception& e) {
    expect(false, std::string("lint engine ran to completion: ") + e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Violation logs go to stderr unbuffered; keep stdout line-buffered so the
  // interleaving stays readable when the output is piped (CI logs).
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  std::uint64_t records = 20000;
  std::uint64_t seed = 0xA0D17;
  std::string stage = "all";
  for (int i = 1; i < argc; ++i) {
    const bool is_records = std::strcmp(argv[i], "--records") == 0;
    if ((is_records || std::strcmp(argv[i], "--seed") == 0) && i + 1 < argc) {
      const auto v = planaria::common::parse_uint(argv[++i]);
      if (!v) {
        std::fprintf(stderr, "planaria-audit: %s takes a decimal integer, "
                     "got \"%s\"\n", argv[i - 1], argv[i]);
        return 1;
      }
      (is_records ? records : seed) = *v;
    } else if (std::strcmp(argv[i], "--stage") == 0 && i + 1 < argc) {
      stage = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: planaria-audit [--records N] [--seed S] "
          "[--stage all|self-test|static|lint|replay|chaos|crash|serve|"
          "storm]\n");
      return 1;
    }
  }
  if (records == 0) {
    std::fprintf(stderr, "planaria-audit: --records must be >= 1\n");
    return 1;
  }
  if (stage != "all" && stage != "self-test" && stage != "static" &&
      stage != "lint" && stage != "replay" && stage != "chaos" &&
      stage != "crash" && stage != "serve" && stage != "storm") {
    std::fprintf(stderr, "planaria-audit: unknown --stage '%s'\n",
                 stage.c_str());
    return 1;
  }

  // The self-test runs first regardless of stage selection: a gate that
  // cannot see a planted bug must not be trusted to pass anything.
  if (!self_test()) {
    std::fprintf(stderr, "planaria-audit: SELF-TEST FAILED — gate is blind\n");
    return 2;
  }
  if (stage == "all" || stage == "static") static_audit();
  if (stage == "all" || stage == "lint") lint_audit();
  if (stage == "all" || stage == "replay") replay_audit(records, seed);
  if (stage == "all" || stage == "chaos") chaos_audit(records, seed);
  if (stage == "all" || stage == "crash") crash_audit(records, seed);
  if (stage == "all" || stage == "serve") serve_audit(records, seed);
  if (stage == "all" || stage == "storm") storm_audit(records, seed);

  if (g_failures > 0) {
    std::fprintf(stderr, "planaria-audit: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("planaria-audit: all checks passed\n");
  return 0;
}
