#!/usr/bin/env bash
# Local mirror of the CI pipeline (.github/workflows/ci.yml).
#
# Runs, in order:
#   1. release  — -Werror build of everything + full ctest suite
#   2. lint     — planaria-lint over src/, tools/, bench/, tests/: layering
#                 DAG, determinism bans, snapshot pairing/round-trip coverage,
#                 contract coverage, hygiene, plus the interprocedural race-*
#                 (parallel-region capture/static/non-const-call), hot-*
#                 (alloc/string/iostream/throw/mutex/env on hot-root paths)
#                 and state-* (member-level save/load reconciliation:
#                 unsaved/unloaded members, order mismatch, determinism
#                 taint) families and the io-raw VFS-bypass bans; must finish
#                 under a 10s budget; writes the --json report to
#                 build-release/lint-report.json (CI uploads it as an
#                 artifact) and validates its v4 schema with
#                 scripts/check_lint_report.py
#   3. sanitize — ASan+UBSan build (arms PLANARIA_DASSERT) + full ctest suite
#   4. audit    — planaria-audit invariant gate (from the sanitizer build, so
#                 the replay stage runs instrumented; includes the serial-vs-
#                 parallel bit-identity replay)
#   5. chaos    — planaria-audit --stage chaos: every (app x kind) cell under
#                 each fault class with contracts in recover mode; exits
#                 nonzero on any abort or injected-vs-recovered counter
#                 mismatch
#   6. crash    — planaria-audit --stage crash: kill-and-resume drills at
#                 randomized record indices across the full (app x kind x
#                 faults x threads) matrix, asserting the resumed run is
#                 bit-identical to an uninterrupted one, plus truncated /
#                 CRC-corrupt snapshot recovery
#   7. serve    — planaria-audit --stage serve: the multi-tenant serving loop
#                 under backpressure, drills and faults — graceful-drain
#                 accounting, kill/resume drills at seeded ticks x {1,4}
#                 threads with a byte-identity gate, and a chaos soak with
#                 all six fault classes armed per tenant
#   8. storm    — planaria-audit --stage storm: seeded storage-fault drills
#                 through the src/io VFS shim — envelope torture per fault
#                 class, the checkpoint recovery chain (current -> .prev ->
#                 quarantine + cold start) under each storm, scrub/repair
#                 with exact counts, and the serving loop's degraded
#                 checkpoint ledger under injected ENOSPC
#   9. tsan     — TSan build of the parallel sweep tests, run with a 4-lane
#                 PLANARIA_THREADS pool
#  10. tidy     — clang-tidy over src/ against the compilation database
#                 (skipped with a notice if clang-tidy is not installed)
#
# Every stage runs even if an earlier one fails; each stage runs under a
# timeout; the script exits nonzero with a summary naming the failed stages.
#
# Usage: scripts/run_checks.sh [--skip-sanitize] [--skip-tsan] [--skip-tidy]
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_SANITIZE=0
SKIP_TSAN=0
SKIP_TIDY=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-tidy) SKIP_TIDY=1 ;;
    *) echo "usage: $0 [--skip-sanitize] [--skip-tsan] [--skip-tidy]" >&2; exit 1 ;;
  esac
done

JOBS=$(nproc 2>/dev/null || echo 4)
FAILED_STAGES=()

# run_stage <name> <timeout-seconds> <function>
# Runs <function> under `timeout`, recording — not aborting on — failure so
# every stage gets its run. `set -e` stays active inside the stage function
# itself (it runs in a subshell via the if-guard), so the first failing
# command still short-circuits that stage.
run_stage() {
  local name="$1" limit="$2" fn="$3"
  printf '\n==> %s (timeout %ss)\n' "$name" "$limit"
  local status=0
  timeout --foreground "$limit" bash -euo pipefail -c "
    cd '$PWD'
    JOBS='$JOBS'
    $(declare -f "$fn")
    $fn
  " || status=$?
  if [[ "$status" -ne 0 ]]; then
    if [[ "$status" -eq 124 ]]; then
      printf '!! stage %s TIMED OUT after %ss\n' "$name" "$limit" >&2
    else
      printf '!! stage %s FAILED (exit %s)\n' "$name" "$status" >&2
    fi
    FAILED_STAGES+=("$name")
  fi
}

stage_release() {
  cmake -B build-release -S . -DPLANARIA_WERROR=ON >/dev/null
  cmake --build build-release -j "$JOBS"
  ctest --test-dir build-release --output-on-failure -j "$JOBS"
}

stage_sanitize() {
  cmake -B build-sanitize -S . -DPLANARIA_WERROR=ON \
    -DPLANARIA_SANITIZE=address,undefined >/dev/null
  cmake --build build-sanitize -j "$JOBS"
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"
}

stage_lint() {
  # Budget assertion (DESIGN.md §13): the full-repo analysis — call graph,
  # race, hot, and state-flow families included — must finish in under 10
  # seconds, or the gate has become too slow to run on every push.
  timeout 10 ./build-release/tools/lint/planaria-lint \
    --json=build-release/lint-report.json
  # Schema contract (v4): same checker CI runs against the JSON artifact.
  python3 scripts/check_lint_report.py build-release/lint-report.json
}

stage_audit() {
  "$AUDIT" --stage static
  "$AUDIT" --stage replay
}

stage_chaos() {
  "$AUDIT" --stage chaos
}

stage_crash() {
  "$AUDIT" --stage crash
}

stage_serve() {
  "$AUDIT" --stage serve
}

stage_storm() {
  "$AUDIT" --stage storm
}

stage_tsan() {
  cmake -B build-tsan -S . -DPLANARIA_WERROR=ON \
    -DPLANARIA_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_parallel test_sim test_sim_edge test_serve
  PLANARIA_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan -R 'test_parallel|test_sim|test_serve' --output-on-failure
}

stage_tidy() {
  # Fixture corpus excluded: deliberately-bad code with no compile commands.
  mapfile -t sources < <(find src tools -name '*.cpp' -not -path 'tools/lint/fixtures/*' | sort)
  clang-tidy -p build-release --quiet "${sources[@]}"
}

run_stage release 1800 stage_release
# The stage timeout only needs headroom over the 10s in-stage budget.
run_stage lint 30 stage_lint

if [[ "$SKIP_SANITIZE" -eq 0 ]]; then
  run_stage sanitize 1800 stage_sanitize
  AUDIT=./build-sanitize/tools/planaria-audit
else
  AUDIT=./build-release/tools/planaria-audit
fi
export AUDIT

run_stage audit 900 stage_audit
run_stage chaos 900 stage_chaos
run_stage crash 1200 stage_crash
run_stage serve 900 stage_serve
run_stage storm 900 stage_storm

if [[ "$SKIP_TSAN" -eq 0 ]]; then
  run_stage tsan 1800 stage_tsan
fi

if [[ "$SKIP_TIDY" -eq 0 ]] && command -v clang-tidy >/dev/null 2>&1; then
  run_stage tidy 1800 stage_tidy
elif [[ "$SKIP_TIDY" -eq 0 ]]; then
  printf '\n==> tidy: clang-tidy not installed — skipped (CI runs it)\n'
fi

if [[ "${#FAILED_STAGES[@]}" -ne 0 ]]; then
  printf '\n==> FAILED stages: %s\n' "${FAILED_STAGES[*]}" >&2
  exit 1
fi
printf '\n==> all checks passed\n'
