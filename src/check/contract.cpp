#include "check/contract.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace planaria::check {

namespace {

std::atomic<std::uint64_t> g_counts[kCategoryCount];
std::atomic<std::uint64_t> g_recoveries[kCategoryCount];
std::atomic<Mode> g_mode{Mode::kAbort};
std::atomic<Handler> g_handler{nullptr};
std::atomic<RecoveryHook> g_recovery_hooks[kCategoryCount];

/// The counting handler stays quiet after this many logged violations so a
/// fuzz run with a systematic bug does not drown its own output.
constexpr std::uint64_t kMaxLoggedViolations = 16;
std::atomic<std::uint64_t> g_logged{0};

void print_violation(const Violation& v) {
  std::fprintf(stderr,
               "planaria: contract violation [%s/%s]: %s\n  at %s:%d\n  %s\n",
               category_name(v.category), kind_name(v.kind),
               v.expr != nullptr ? v.expr : "", v.file != nullptr ? v.file : "?",
               v.line, v.message != nullptr ? v.message : "");
}

}  // namespace

const char* category_name(Category category) {
  switch (category) {
    case Category::kTableOccupancy: return "table-occupancy";
    case Category::kTimingMonotonicity: return "timing-monotonicity";
    case Category::kCoordinatorExclusivity: return "coordinator-exclusivity";
    case Category::kStorageBudget: return "storage-budget";
    case Category::kCount: break;
  }
  return "unknown";
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kRequire: return "require";
    case Kind::kEnsure: return "ensure";
    case Kind::kInvariant: return "invariant";
  }
  return "unknown";
}

void set_mode(Mode mode) { g_mode.store(mode, std::memory_order_relaxed); }

Mode mode() { return g_mode.load(std::memory_order_relaxed); }

void set_handler(Handler handler) {
  g_handler.store(handler, std::memory_order_relaxed);
}

Handler handler() { return g_handler.load(std::memory_order_relaxed); }

void set_recovery_hook(Category category, RecoveryHook hook) {
  const auto i = static_cast<int>(category);
  if (i < 0 || i >= kCategoryCount) return;
  g_recovery_hooks[i].store(hook, std::memory_order_relaxed);
}

RecoveryHook recovery_hook(Category category) {
  const auto i = static_cast<int>(category);
  if (i < 0 || i >= kCategoryCount) return nullptr;
  return g_recovery_hooks[i].load(std::memory_order_relaxed);
}

CountingScope::CountingScope() : saved_mode_(mode()), saved_handler_(handler()) {
  set_handler(nullptr);
  set_mode(Mode::kCount);
}

CountingScope::~CountingScope() {
  set_mode(saved_mode_);
  set_handler(saved_handler_);
}

RecoveryScope::RecoveryScope()
    : saved_mode_(mode()), saved_handler_(handler()) {
  set_handler(nullptr);
  set_mode(Mode::kRecover);
}

RecoveryScope::~RecoveryScope() {
  set_mode(saved_mode_);
  set_handler(saved_handler_);
}

std::uint64_t violation_count(Category category) {
  const auto i = static_cast<int>(category);
  if (i < 0 || i >= kCategoryCount) return 0;
  return g_counts[i].load(std::memory_order_relaxed);
}

std::uint64_t total_violations() {
  std::uint64_t total = 0;
  for (const auto& c : g_counts) total += c.load(std::memory_order_relaxed);
  return total;
}

void reset_violations() {
  for (auto& c : g_counts) c.store(0, std::memory_order_relaxed);
  g_logged.store(0, std::memory_order_relaxed);
}

std::uint64_t recovery_count(Category category) {
  const auto i = static_cast<int>(category);
  if (i < 0 || i >= kCategoryCount) return 0;
  return g_recoveries[i].load(std::memory_order_relaxed);
}

std::uint64_t total_recoveries() {
  std::uint64_t total = 0;
  for (const auto& c : g_recoveries) total += c.load(std::memory_order_relaxed);
  return total;
}

void reset_recoveries() {
  for (auto& c : g_recoveries) c.store(0, std::memory_order_relaxed);
}

namespace detail {

void report(Category category, Kind kind, const char* expr, const char* file,
            int line, const char* message) {
  const auto i = static_cast<int>(category);
  if (i >= 0 && i < kCategoryCount) {
    g_counts[i].fetch_add(1, std::memory_order_relaxed);
  }

  const Violation v{category, kind, expr, file, line, message};
  if (Handler h = handler(); h != nullptr) {
    h(v);
    return;
  }
  const Mode m = mode();
  if (m == Mode::kRecover) {
    if (i >= 0 && i < kCategoryCount) {
      g_recoveries[i].fetch_add(1, std::memory_order_relaxed);
      if (RecoveryHook hook =
              g_recovery_hooks[i].load(std::memory_order_relaxed);
          hook != nullptr) {
        hook(v);
      }
    }
    if (g_logged.fetch_add(1, std::memory_order_relaxed) <
        kMaxLoggedViolations) {
      print_violation(v);
    }
    return;
  }
  if (m == Mode::kCount) {
    if (g_logged.fetch_add(1, std::memory_order_relaxed) <
        kMaxLoggedViolations) {
      print_violation(v);
    }
    return;
  }
  print_violation(v);
  std::abort();
}

}  // namespace detail
}  // namespace planaria::check
