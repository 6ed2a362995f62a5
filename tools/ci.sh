#!/usr/bin/env bash
# Tier-1 verify, three times over the same test suite:
#
#   1. plain        — RelWithDebInfo, the perf-shaped build the benches use.
#                     ctest runs each TEST in its own process, so the
#                     binaries that share the process metrics registry
#                     also run once unfiltered, every TEST in one process:
#                     a test that reads an absolute count instead of a
#                     delta fails there.
#   2. asan         — address+undefined sanitizers, plus DPURPC_LOCKDEP=ON:
#                     the deserializer works on raw arena bytes and does
#                     unaligned word probes, so this pass catches the
#                     lifetime/OOB slips the plain pass runs through; the
#                     lockdep checker rides along and fails the pass on the
#                     first lock-order inversion or domain-rule violation.
#   3. tsan         — ThreadSanitizer over the whole suite: the DPU proxy
#                     lanes, decode-pool workers, xRPC reader threads,
#                     simverbs CQ pollers and the metrics scraper all
#                     interleave in the tests, and data races between them
#                     are invisible to passes 1–2. Benches are excluded
#                     here (the BMI2 micro-bench kernels measure nothing
#                     under TSan's 5-15x slowdown). The proxy, lane and
#                     codec-pool tests then run again, ten times each
#                     with a 60 s timeout: a wrong lane loop or a lost
#                     wakeup shows up as a rare hang, not a failure.
#
# Extra named passes:
#
#   lint            — tools/lint.sh: dpulint (the project-specific
#                     invariant checker, tools/dpulint — always enforced,
#                     built from this tree) plus clang-tidy over src/
#                     (skipped with a warning when clang-tidy is absent,
#                     hard failure under CI=true).
#   trace           — re-runs the plain tree's whole test suite with
#                     DPURPC_TRACE_FORCE=full: every request in every test
#                     records spans into the rings, so the instrumentation
#                     sites are exercised under load even by tests that
#                     never configure the tracer themselves.
#   bench-smoke     — builds the plain tree's bench/ binaries and runs each
#                     one once with DPURPC_BENCH_SMOKE=1 (tiny iteration
#                     counts): proves every harness still sets up, measures
#                     and reports without crashing. The harness list is
#                     bench/bench_targets.txt, written by CMake, so stale
#                     binaries of deleted harnesses never run. Numbers are
#                     meaningless. The figure
#                     harnesses (fig8/fig9/fig10/fig11/fig12) additionally
#                     run with --json; their outputs are combined into
#                     <prefix>-plain/BENCH_6.json for the workflow artifact.
#                     It also builds the gated datapath benchmark
#                     (perfbench/) standalone into <prefix>-perfbench, as
#                     perfbench/run.py builds it, and runs its own tests
#                     (python3 perfbench/test_run.py).
#   perf            — the scheduled perf-trajectory lane: runs the figure
#                     harnesses at FULL iteration counts (no smoke env) and
#                     assembles the same BENCH_6.json document with real
#                     numbers, suitable for a strict bench_diff.py gate
#                     against a cached baseline. Minutes, not seconds — not
#                     part of `all`.
#
# Usage: tools/ci.sh [--pass plain|asan|tsan|lint|trace|bench-smoke|perf|all] [build-dir-prefix]
#   default pass is `all` (plain, asan, tsan, trace, then lint); default
#   prefix is build-ci. A per-pass wall-clock summary prints at the end
#   either way.
set -euo pipefail
cd "$(dirname "$0")/.."

pass="all"
prefix=""
while [ $# -gt 0 ]; do
  case "$1" in
    --pass) pass="$2"; shift 2 ;;
    --pass=*) pass="${1#--pass=}"; shift ;;
    -h|--help)
      sed -n '2,63p' "$0"; exit 0 ;;
    -*)
      echo "ci: unknown flag $1 (see --help)" >&2; exit 64 ;;
    *)
      prefix="$1"; shift ;;
  esac
done
prefix="${prefix:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

# ccache makes the matrix affordable on hosted runners; harmless to skip.
launcher_args=()
if command -v ccache >/dev/null 2>&1; then
  launcher_args=(-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

summary=()
timed() {
  local name="$1"; shift
  local t0 t1
  t0=$(date +%s)
  "$@"
  t1=$(date +%s)
  summary+=("$(printf '%-12s %4ds' "$name" "$((t1 - t0))")")
}

build_dir() {
  local dir="$1"; shift
  echo "=== configure $dir ($*)" >&2
  cmake -B "$dir" -S . "${launcher_args[@]}" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
}

run_pass() {
  local dir="$1"; shift
  build_dir "$dir" "$@"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Test binaries whose TESTs share the process metrics registry.
registry_binaries="metrics_test trace_test flight_recorder_test xrpc_test rdmarpc_test"

pass_plain() {
  run_pass "$prefix-plain"
  local name
  for name in $registry_binaries; do
    echo "=== $name (one process)" >&2
    "$prefix-plain/tests/$name" --gtest_brief=1
  done
}
pass_asan()  { run_pass "$prefix-asan" -DDPURPC_SANITIZE=address,undefined -DDPURPC_LOCKDEP=ON; }
# Tests whose failure mode is a rare hang in a lane or worker loop, a
# lost wakeup in the futex channel (TSan does not model futexes, so the
# channel's ping-pong must hold on its atomics alone) or a mistimed ack.
repeat_tests='OffloadFixture|MultiLane|ResponseOffload|EndToEndStress|TraceE2e|Forensics|CodecPool|CompletionChannel|PureAck'

pass_tsan() {
  run_pass "$prefix-tsan" -DDPURPC_SANITIZE=thread -DDPURPC_BUILD_BENCH=OFF
  echo "=== repeat: $repeat_tests" >&2
  ctest --test-dir "$prefix-tsan" --output-on-failure -j "$jobs" \
    --repeat until-fail:10 --timeout 60 -R "$repeat_tests"
}
pass_lint() {
  # lint.sh needs a configured tree (compile_commands.json) and builds
  # the dpulint target itself; configure here so `--pass lint` works
  # standalone without paying for a full build.
  if [ ! -f "$prefix-plain/compile_commands.json" ]; then
    cmake -B "$prefix-plain" -S . "${launcher_args[@]}" >/dev/null
  fi
  tools/lint.sh "$prefix-plain"
}

# Reuses the plain tree (same binaries, new env): DPURPC_TRACE_FORCE=full
# flips the runtime gate open in every test process, so all the span
# record sites run hot for the whole suite.
pass_trace() {
  build_dir "$prefix-plain"
  DPURPC_TRACE_FORCE=full ctest --test-dir "$prefix-plain" --output-on-failure -j "$jobs"
}

# The figure harnesses whose --json outputs land in BENCH_6.json.
fig_benches="fig8_datapath fig9_scaling fig10_roundtrip fig11_shuffle fig12_openloop"
# Extra per-figure documents assembled alongside them (not separate
# binaries): the knee-forensics attribution doc fig12 writes.
bench_docs="$fig_benches fig12_forensics"

# Combine per-figure JSON from $1 into $2 as one document:
# {"fig8_datapath": {...}, "fig9_scaling": {...}, ...}. Fails (returns 1)
# when nothing was collected.
assemble_bench_json() {
  local json_dir="$1" out="$2" name first=1
  {
    echo "{"
    for name in $bench_docs; do
      [ -s "$json_dir/$name.json" ] || continue
      [ "$first" -eq 1 ] || echo ","
      first=0
      printf '"%s": ' "$name"
      cat "$json_dir/$name.json"
    done
    echo "}"
  } > "$out"
  if [ "$first" -eq 1 ]; then
    echo "ci: no bench JSON collected for $out" >&2
    return 1
  fi
  echo "ci: bench results collected in $out" >&2
}

pass_bench_smoke() {
  build_dir "$prefix-plain"
  local bench name failed=0
  local json_dir="$prefix-plain/bench-json"
  local list="$prefix-plain/bench/bench_targets.txt"
  mkdir -p "$json_dir"
  [ -s "$list" ] || { echo "ci: no bench list at $list" >&2; return 1; }
  for name in $(<"$list"); do
    bench="$prefix-plain/bench/$name"
    if [ ! -x "$bench" ]; then
      echo "ci: bench smoke FAILED: $name not built" >&2
      failed=1
      continue
    fi
    echo "=== smoke $name" >&2
    # The figure harnesses emit machine-readable results; collect them
    # into BENCH_6.json below (archived as a workflow artifact).
    local extra=()
    case " $fig_benches " in
      *" $name "*) extra=(--json "$json_dir/$name.json") ;;
    esac
    if ! DPURPC_BENCH_SMOKE=1 "$bench" "${extra[@]}" >/dev/null; then
      echo "ci: bench smoke FAILED: $name" >&2
      failed=1
    fi
  done
  # The knee-forensics path (recorder + sampler + counter-track export) in
  # smoke shape: proves the re-run, the artifact writers and the JSON doc
  # still work; the capture/attribution gates only apply at full length.
  echo "=== smoke fig12_openloop --knee-forensics" >&2
  if ! DPURPC_BENCH_SMOKE=1 "$prefix-plain/bench/fig12_openloop" \
      --knee-forensics \
      --forensics-json "$json_dir/fig12_forensics.json" \
      --trace-out "$json_dir/fig12_knee_trace.json" \
      --exemplars-out "$json_dir/fig12_tail_exemplars.json" >/dev/null; then
    echo "ci: bench smoke FAILED: fig12_openloop --knee-forensics" >&2
    failed=1
  fi
  # Smoke-mode numbers: shape checks only, never diffed strictly.
  assemble_bench_json "$json_dir" "$prefix-plain/BENCH_6.json" || failed=1
  # The gated benchmark builds on its own CMake project (perfbench/), so
  # nothing above compiles its ledger program.
  echo "=== build perfbench (standalone)" >&2
  if ! { cmake -S perfbench -B "$prefix-perfbench" "${launcher_args[@]}" \
           -DCMAKE_BUILD_TYPE=Release >/dev/null &&
         cmake --build "$prefix-perfbench" -j "$jobs"; }; then
    echo "ci: bench smoke FAILED: perfbench build" >&2
    failed=1
  fi
  echo "=== perfbench/test_run.py" >&2
  if ! python3 perfbench/test_run.py; then
    echo "ci: bench smoke FAILED: perfbench/test_run.py" >&2
    failed=1
  fi
  return "$failed"
}

# Full-length figure runs for the perf-trajectory lane. Only the fig*
# harnesses run (the ablations are relative A/B checks with their own
# in-bench gates); each contributes real numbers to BENCH_6.json.
pass_perf() {
  build_dir "$prefix-plain"
  local name failed=0
  local json_dir="$prefix-plain/bench-json"
  mkdir -p "$json_dir"
  for name in $fig_benches; do
    [ -x "$prefix-plain/bench/$name" ] || { echo "ci: missing bench $name" >&2; failed=1; continue; }
    echo "=== perf $name" >&2
    # fig12 runs its knee-forensics pass in the same invocation: the
    # recorder-armed re-run, the Perfetto timeline with counter tracks and
    # the tail-exemplar dump ride the same sweep (all three archived as
    # workflow artifacts; the attribution doc joins BENCH_6.json).
    local extra=()
    if [ "$name" = fig12_openloop ]; then
      extra=(--knee-forensics
             --forensics-json "$json_dir/fig12_forensics.json"
             --trace-out "$json_dir/fig12_knee_trace.json"
             --exemplars-out "$json_dir/fig12_tail_exemplars.json")
    fi
    if ! "$prefix-plain/bench/$name" --json "$json_dir/$name.json" "${extra[@]}" >/dev/null; then
      echo "ci: perf bench FAILED: $name" >&2
      failed=1
    fi
  done
  assemble_bench_json "$json_dir" "$prefix-plain/BENCH_6.json" || failed=1
  return "$failed"
}

case "$pass" in
  plain)       timed plain pass_plain ;;
  asan)        timed asan pass_asan ;;
  tsan)        timed tsan pass_tsan ;;
  lint)        timed lint pass_lint ;;
  trace)       timed trace pass_trace ;;
  bench-smoke) timed bench-smoke pass_bench_smoke ;;
  perf)        timed perf pass_perf ;;
  all)
    timed plain pass_plain
    timed asan pass_asan
    timed tsan pass_tsan
    timed trace pass_trace
    timed lint pass_lint
    ;;
  *)
    echo "ci: unknown pass '$pass' (plain|asan|tsan|lint|trace|bench-smoke|perf|all)" >&2
    exit 64 ;;
esac

echo
echo "ci: pass summary (wall clock)"
for line in "${summary[@]}"; do echo "  $line"; done
echo "ci: pass '$pass' green"
