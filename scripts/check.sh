#!/usr/bin/env bash
# One-command correctness gate for xvm — the bar every PR must clear:
#
#   1. Textual lints: Status discipline (tools/lint_status.py) and lock
#      discipline (tools/lint_locks.py — raw mutexes, unannotated atomics,
#      relaxed orderings outside the allowlist, sleep-based sync), plus the
#      lock lint's own fixture self-test.
#   2. clang-tidy over src/ (skipped with a notice when not installed).
#   3. Thread-safety analysis leg: a Clang build of the full tree with
#      -DXVM_THREAD_SAFETY=ON -DXVM_THREAD_SAFETY_WERROR=ON, so any
#      lock-discipline violation the annotations can express is a hard
#      build error; the negative compile tests then prove the analysis
#      actually rejects violations. Skipped with a notice when no clang++
#      is installed (the annotations are no-ops elsewhere).
#   4. ASan+UBSan build (-DXVM_SANITIZE=address, warnings as errors) + full
#      ctest run.
#   5. Crash-matrix leg: an explicit ASan re-run of the durability suites —
#      the fault-injection matrix forks one child per fault-point
#      occurrence (torn writes, missed fsyncs, kills between rename and
#      directory fsync, mid-checkpoint and mid-WAL-append crashes) and
#      asserts that recovery equals a full recompute and never damages the
#      previous checkpoint.
#   6. TSan build (-DXVM_SANITIZE=thread) + full ctest run.
#   7. TSan re-run of the val/cont cache stress test, so the striped-lock
#      cache is raced by the parallel ViewManager.
#   8. TSan re-run of the snapshot-serving suite: concurrent reader threads
#      race the maintenance coordinator through the RCU publication slot,
#      and every observed snapshot is replay-verified against a recompute;
#      plus the copy-on-write view store's readers-vs-writer test.
#   9. Bench and example smoke run: every bench_* and example_* binary of
#      the ASan build runs once on a tiny document and must exit 0 (the
#      benches XVM_CHECK-abort on any error).
#  10. End-to-end benchmark self-test (perfbench/tests/selftest.py): builds
#      perfbench/ — whose traced replica compiles against the engine's
#      headers — and runs each workload for 1 s on a 64 KB document,
#      checking that the replica stays bit-identical to the ViewManager and
#      that views equal recompute.
#  11. Paper-figure report (scripts/bench_figs.py --diff): every bench_fig*
#      of the plain build/ tree against BENCH_figs.json. Report only: it
#      prints and never fails the gate.
#
# Every configuration is exported with CMAKE_EXPORT_COMPILE_COMMANDS=ON so
# clang-tidy and the thread-safety leg analyze against the real flags of a
# real build tree, never best-effort guesses.
#
# All sanitized runs execute with the invariant auditor enabled
# (XVM_CHECK_INVARIANTS=1): after every applied statement the maintenance
# layer re-validates store document order, Dewey parent/prefix consistency,
# label-dictionary bijectivity, every live val/cont cache entry (payloads
# AND byte accounting) against fresh recomputation, and (sampled)
# view-vs-recompute equality.
#
# Usage: scripts/check.sh [--fast]
#   --fast   reuse existing build trees without reconfiguring
# Env:
#   JOBS=<n>      parallel build/test jobs (default: nproc)
#   XVM_TIDY=0    skip clang-tidy even if installed
#   XVM_TSA=0     skip the thread-safety leg even if clang++ is installed

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
JOBS="${JOBS:-$(nproc)}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n== %s ==\n' "$*"; }

# configure <build-dir> [cmake args...] — one chokepoint so every build tree
# in the gate exports compile_commands.json.
configure() {
  local bdir="$1"
  shift
  cmake -B "$bdir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@" >/dev/null
}

step "lint (Status + lock + execution-layering discipline)"
# The textual lints ARE the gate for several invariants (dropped Status,
# raw mutexes); a silently skipped lint leg would let violations through,
# so a missing interpreter is a hard failure, not a skip.
if ! command -v python3 >/dev/null 2>&1; then
  echo "error: python3 is required (the lint legs are mandatory); install it" >&2
  exit 1
fi
python3 tools/lint_status.py --root "$ROOT"
python3 tools/lint_locks.py --root "$ROOT"
python3 tools/lint_locks_test.py
python3 tools/lint_exec.py --root "$ROOT"

step "clang-tidy"
if [[ "${XVM_TIDY:-1}" == "0" ]]; then
  echo "skipped (XVM_TIDY=0)"
elif command -v clang-tidy >/dev/null 2>&1; then
  # The address build tree below exports compile_commands.json; configure it
  # first if this is the first run.
  if [[ ! -f build-asan/compile_commands.json ]]; then
    configure build-asan -DXVM_SANITIZE=address -DXVM_CHECK_INVARIANTS=ON \
        -DCMAKE_CXX_FLAGS=-Werror
  fi
  # shellcheck disable=SC2046
  clang-tidy -p build-asan --quiet $(find src -name '*.cc' | sort)
else
  echo "skipped (clang-tidy not installed; config in .clang-tidy)"
fi

step "thread-safety analysis (clang, -Werror=thread-safety)"
if [[ "${XVM_TSA:-1}" == "0" ]]; then
  echo "skipped (XVM_TSA=0)"
elif command -v clang++ >/dev/null 2>&1; then
  if [[ "$FAST" == "0" || ! -d build-tsa ]]; then
    configure build-tsa \
        -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
        -DXVM_THREAD_SAFETY=ON -DXVM_THREAD_SAFETY_WERROR=ON \
        -DXVM_CHECK_INVARIANTS=ON
  fi
  cmake --build build-tsa -j "$JOBS"
  # The negative compile tests: representative violations must fail to
  # compile, and the positive control must compile clean.
  ctest --test-dir build-tsa -R 'thread_safety' --output-on-failure -j "$JOBS"
else
  echo "skipped (clang++ not installed; annotations are no-ops without it)"
fi

# run_config <preset> <build-dir> [extra cmake args...]
run_config() {
  local preset="$1" bdir="$2"
  shift 2
  step "build ($preset sanitizer)"
  if [[ "$FAST" == "0" || ! -d "$bdir" ]]; then
    configure "$bdir" -DXVM_SANITIZE="$preset" -DXVM_CHECK_INVARIANTS=ON "$@"
  fi
  cmake --build "$bdir" -j "$JOBS"
  step "ctest ($preset sanitizer, invariants on)"
  XVM_CHECK_INVARIANTS=1 ctest --test-dir "$bdir" --output-on-failure -j "$JOBS"
}

# -Werror: the tier-1 tree builds with 0 warnings (-Wall -Wextra), and this
# leg compiles every source, test, bench and tool, so a new warning fails
# the gate instead of waiting for someone to notice it.
run_config address build-asan -DCMAKE_CXX_FLAGS=-Werror

step "planlint (static plan analysis over the example views)"
# The install-time analyzer must accept every example view definition and
# reproduce its golden diagnostics (also run as ctest planlint_* above;
# repeated here standalone so a plan regression is named explicitly).
build-asan/tools/planlint/planlint examples/views.lint
ctest --test-dir build-asan -R 'planlint' --output-on-failure -j "$JOBS"

step "physical plans (kernel selection pinned byte-exactly)"
# The lowered plans the executor runs: which sorts the analyzer's order
# facts let lowering elide (including those over snowcaps, which upkeep
# keeps in their declared order), which stay adaptive check-then-sort
# because no order is proven, where scans fused. The golden
# (planlint_physical ctest) pins kernel selection; the standalone run makes
# a kernel-selection regression name itself in CI output.
build-asan/tools/planlint/planlint --physical \
    tools/planlint/testdata/physical.lint

step "deltalint (bounded-exhaustive delta-equivalence prover)"
# The prover must prove every view of the positive corpus and refute every
# hand-mutated rewrite of the negative one, byte-exactly against the
# goldens (planlint_prove_* ctests), plus the meta-check that 100% of
# compiler-emitted plans over the XMark/XPath corpus prove equivalent and
# the reference evaluator agrees with the fused pipelines.
build-asan/tools/planlint/planlint --prove-delta \
    tools/planlint/testdata/prove_ok.lint
ctest --test-dir build-asan -R 'planlint_prove|DeltaCheck|SymExec' \
      --output-on-failure -j "$JOBS"

step "crash matrix (address sanitizer, fault injection)"
XVM_CHECK_INVARIANTS=1 \
  ctest --test-dir build-asan \
        -R 'CrashMatrix|Durability|WalTest|WalCodec|PersistSaveFailure|PersistAdversarial|DocSnapshot' \
        --output-on-failure -j "$JOBS"

step "bench + example smoke (address sanitizer, tiny documents)"
# Nothing else runs these binaries; each must finish cleanly at smoke size
# within 10 minutes. They run from a scratch cwd with the build's invariant
# auditor default (on, -DXVM_CHECK_INVARIANTS=ON).
smoke_dir="$(mktemp -d)"
for bin in build-asan/bench/bench_* build-asan/examples/example_*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  echo "-- $bin"
  if ! (cd "$smoke_dir" && XVM_SCALE=0.02 XVM_REPS=1 XVM_WORKERS=2 \
        timeout 600 "$ROOT/$bin" >/dev/null); then
    echo "error: $bin failed" >&2
    rm -rf "$smoke_dir"
    exit 1
  fi
done
rm -rf "$smoke_dir"

run_config thread build-tsan

step "cache stress (thread sanitizer)"
XVM_CHECK_INVARIANTS=1 \
  ctest --test-dir build-tsan -R 'StoreCacheStress|StoreCacheBytes|PersistTest.Fuzz' \
        --output-on-failure -j "$JOBS"

step "serving stress (thread sanitizer, concurrent readers vs maintenance)"
# The snapshot-serving stress: ≥4 reader threads acquiring snapshots while
# the coordinator applies a mixed stream, every observation replay-verified
# bit-identical to a recompute at its generation; and the copy-on-write view
# store, whose readers scan and look up held snapshots while the writer
# mutates the chunks and shards it has not shared.
XVM_CHECK_INVARIANTS=1 \
  ctest --test-dir build-tsan -R 'ServingStress|ViewSnapshotTest|ViewStoreCowTest' \
        --output-on-failure -j "$JOBS"

step "perfbench (end-to-end benchmark self-test)"
# Nothing else builds perfbench/, so a header change that breaks the traced
# replica, or a pipeline change it no longer mirrors, fails here.
python3 perfbench/tests/selftest.py

step "paper figures (report only: this tree vs BENCH_figs.json)"
# The paper-figure trajectory: every bench_fig* of a RelWithDebInfo build at
# the committed scale, against the last run recorded in BENCH_figs.json.
# Timings on a shared host are noisy, so this prints and never fails; a row
# whose node or tuple counts moved is the thing to read.
if cmake -B build -S . >/dev/null && cmake --build build -j "$JOBS" >/dev/null; then
  python3 scripts/bench_figs.py --build build --diff BENCH_figs.json ||
    echo "note: the paper-figure report did not complete"
else
  echo "note: build/ did not build; paper-figure report skipped"
fi

step "all checks passed"
