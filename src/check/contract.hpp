// Invariant contract layer.
//
// The paper's correctness argument rests on structural invariants the
// simulator previously only spot-checked with PLANARIA_ASSERT: bounded table
// occupancy in the FT -> AT -> PHT pipeline, monotone simulated time,
// "parallel training, serial issuing" (exactly one sub-prefetcher disposition
// per trigger), and bit-exact hardware storage budgets. This header gives
// those checks names, categories, and a pluggable response:
//
//   PLANARIA_REQUIRE(category, expr)    — precondition at a subsystem boundary
//   PLANARIA_ENSURE(category, expr)     — postcondition before returning
//   PLANARIA_INVARIANT(category, expr)  — structural property mid-operation
//
// All three stay enabled in release builds (predicates on hot paths are
// integer compares, same policy as PLANARIA_ASSERT). The default handler
// prints and aborts; fuzz/audit runs install the counting handler instead,
// which logs the first few violations and keeps per-category counters that
// `planaria-audit` and tests inspect. A third policy, kRecover, additionally
// tallies a per-category recovery counter and notifies an optional recovery
// hook, then returns so the call site's repair path runs (clamp a regressed
// clock, drop a corrupted table entry, skip a malformed request) — this is
// the graceful-degradation mode the fault-injection harness (src/fault,
// DESIGN.md §10) runs under.
//
// Concurrency contract: the parallel sweep engine (common/thread_pool,
// sim/experiment) fires contracts from many threads at once, and this layer
// is the only cross-thread mutable state in the pipeline. The per-category
// counters, mode, and handler are std::atomic — concurrent violations are
// counted exactly (tests/test_parallel.cpp proves it under TSan) — and a
// custom Handler must itself be thread-safe. CountingScope saves/restores
// process-global state, so scopes belong at the orchestration level (a test
// body, an audit stage), never inside concurrently executing tasks.
#pragma once

#include <cstdint>

namespace planaria::check {

/// Contract families, mirroring the invariant classes the paper's design
/// leans on. Index bounds and lifecycle checks map onto the nearest family
/// (a way index is table occupancy; "step after finish" is a time ordering).
enum class Category : std::uint8_t {
  kTableOccupancy = 0,      ///< entry counts/indices within configured bounds
  kTimingMonotonicity,      ///< simulated clocks and arrivals never run backward
  kCoordinatorExclusivity,  ///< exactly one SLP/TLP disposition per trigger
  kStorageBudget,           ///< bit-exact accounting matches hardware budget
  kCount,
};

inline constexpr int kCategoryCount = static_cast<int>(Category::kCount);

const char* category_name(Category category);

enum class Kind : std::uint8_t { kRequire = 0, kEnsure, kInvariant };

const char* kind_name(Kind kind);

/// Everything a handler learns about one failed contract.
struct Violation {
  Category category = Category::kTableOccupancy;
  Kind kind = Kind::kRequire;
  const char* expr = nullptr;
  const char* file = nullptr;
  int line = 0;
  const char* message = nullptr;  ///< optional, may be null
};

/// What happens after the per-category counter is bumped.
enum class Mode : std::uint8_t {
  kAbort = 0,  ///< print and abort (default; a violation is a bug)
  kCount,      ///< log the first few, keep counting, continue (fuzz/audit)
  kRecover,    ///< count, bump the recovery tally, notify the per-category
               ///< recovery hook, continue — the call site repairs locally
               ///< (clamp the clock, drop the entry, skip the request)
};

void set_mode(Mode mode);
Mode mode();

/// A custom handler overrides the mode entirely (counters still update
/// first). Pass nullptr to fall back to the mode-selected behaviour. The
/// handler may return in kCount-style use; returning is safe at every
/// contract site.
using Handler = void (*)(const Violation&);
void set_handler(Handler handler);
Handler handler();

/// Observability hook for kRecover mode: called once per recovered violation
/// of its category, after the violation and recovery counters update. The
/// hook must be thread-safe (violations fire from pooled channel tasks) and
/// must not throw. Structural repair itself happens at the call site, which
/// is the only place with access to the offending entry; the hook exists so
/// harnesses can trace or veto-log recoveries centrally.
using RecoveryHook = void (*)(const Violation&);
void set_recovery_hook(Category category, RecoveryHook hook);
RecoveryHook recovery_hook(Category category);

/// Scoped arming of the counting mode, restoring the previous mode/handler on
/// destruction; used by the audit replay and the contract tests.
class CountingScope {
 public:
  CountingScope();
  ~CountingScope();
  CountingScope(const CountingScope&) = delete;
  CountingScope& operator=(const CountingScope&) = delete;

 private:
  Mode saved_mode_;
  Handler saved_handler_;
};

/// Scoped arming of kRecover — violations are counted, recoveries tallied,
/// and execution continues through the call sites' repair paths. Used by the
/// audit chaos stage and the fault-injection tests.
class RecoveryScope {
 public:
  RecoveryScope();
  ~RecoveryScope();
  RecoveryScope(const RecoveryScope&) = delete;
  RecoveryScope& operator=(const RecoveryScope&) = delete;

 private:
  Mode saved_mode_;
  Handler saved_handler_;
};

std::uint64_t violation_count(Category category);
std::uint64_t total_violations();
void reset_violations();

/// Recoveries performed per category (kRecover mode only). A healthy
/// fault-injection run keeps recovery_count == violation_count for every
/// category the armed fault class manifests through.
std::uint64_t recovery_count(Category category);
std::uint64_t total_recoveries();
void reset_recoveries();

namespace detail {

void report(Category category, Kind kind, const char* expr, const char* file,
            int line, const char* message);

}  // namespace detail
}  // namespace planaria::check

#define PLANARIA_CONTRACT_CHECK_(category_, kind_, expr_, msg_)               \
  ((expr_) ? static_cast<void>(0)                                             \
           : ::planaria::check::detail::report(                               \
                 ::planaria::check::Category::category_,                      \
                 ::planaria::check::Kind::kind_, #expr_, __FILE__, __LINE__,  \
                 (msg_)))

#define PLANARIA_REQUIRE(category, expr) \
  PLANARIA_CONTRACT_CHECK_(category, kRequire, expr, nullptr)
#define PLANARIA_REQUIRE_MSG(category, expr, msg) \
  PLANARIA_CONTRACT_CHECK_(category, kRequire, expr, (msg))

#define PLANARIA_ENSURE(category, expr) \
  PLANARIA_CONTRACT_CHECK_(category, kEnsure, expr, nullptr)
#define PLANARIA_ENSURE_MSG(category, expr, msg) \
  PLANARIA_CONTRACT_CHECK_(category, kEnsure, expr, (msg))

#define PLANARIA_INVARIANT(category, expr) \
  PLANARIA_CONTRACT_CHECK_(category, kInvariant, expr, nullptr)
#define PLANARIA_INVARIANT_MSG(category, expr, msg) \
  PLANARIA_CONTRACT_CHECK_(category, kInvariant, expr, (msg))
