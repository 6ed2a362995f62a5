#!/usr/bin/env bash
# Static lint wall: one grep, then two layers:
#
#   0. One metrics registry: every layer registers in
#      metrics::default_registry(), so no header under src/ other than
#      src/metrics/metrics.hpp may name metrics::Registry — a Registry*
#      parameter, field or option coming back fails here.
#      One trace-prefix writer: the rdmarpc block layer owns the 24-byte
#      WireTrace payload prefix (BlockWriter stamps it, BlockReader peels
#      it), so nothing outside src/rdmarpc/block.* may construct a
#      WireTrace or memcpy one — an engine hand-building the prefix again
#      fails here.
#   1. dpulint (tools/dpulint) — the project-specific checker that proves
#      the datapath invariants: hot-path allocation/lock freedom,
#      DESIGN.md lock-order sync, the relaxed-atomics whitelist, and
#      trace-stage exhaustiveness (DESIGN.md §3.17). Built from this tree,
#      so it always runs — no external toolchain required — and any
#      finding is a hard failure everywhere.
#   2. clang-tidy with the checks in .clang-tidy (bugprone-*,
#      concurrency-*, performance-*) over first-party sources, driven by
#      the compile_commands.json the CMake configure always exports.
#      bench/ and tests/ get a second, relaxed pass (concurrency and
#      lifetime checks only — harness and fixture code is allowed its
#      repetition and magic numbers, not its races). When clang-tidy is
#      not installed (the default container ships GCC only), the layer is
#      skipped with a printed warning — except under CI=true, where a
#      missing tool is a hard failure: the hosted lanes pin clang-tidy,
#      so absence there means the lint wall silently lost a layer.
#
# Exit status is the contract: any finding is a non-zero exit, so CI
# treats lint findings exactly like test failures.
#
# Usage: tools/lint.sh [build-dir]   (default: build)
set -uo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"

if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "lint: $build_dir/compile_commands.json missing — configure first:" >&2
  echo "  cmake -B $build_dir -S .   (CMAKE_EXPORT_COMPILE_COMMANDS is on by default)" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 4)"

# ------------------------------------------------- 0. one metrics registry

if grep -rn --include='*.hpp' 'metrics::Registry' src | grep -v '^src/metrics/metrics\.hpp:'; then
  echo "lint: a header above names metrics::Registry; components register in" >&2
  echo "lint: metrics::default_registry() instead of taking a registry" >&2
  exit 1
fi

wire_trace_construct='\bWireTrace([{(]|[[:space:]]+[A-Za-z_][A-Za-z0-9_]*([{(;]|[[:space:]]*=))'
wire_trace_copy='memcpy\([^;]*(\bWireTrace\b|kWireTraceSize)'
if grep -rnE --include='*.hpp' --include='*.cpp' \
       "$wire_trace_construct|$wire_trace_copy" src tests bench examples perfbench |
     grep -vE '^src/rdmarpc/block\.(hpp|cpp):|^[^:]+:[0-9]+:[[:space:]]*//' |
     grep -v 'struct WireTrace {'; then
  echo "lint: a WireTrace is built or copied above; the trace prefix is" >&2
  echo "lint: written only by src/rdmarpc/block.* (Connection::begin_message)" >&2
  exit 1
fi

# ----------------------------------------------------------- 1. dpulint

dpulint_bin="$build_dir/tools/dpulint/dpulint"
if [ ! -x "$dpulint_bin" ]; then
  echo "lint: building dpulint" >&2
  if ! cmake --build "$build_dir" --target dpulint -j "$jobs" >/dev/null; then
    echo "lint: failed to build dpulint" >&2
    exit 2
  fi
fi

# Checker self-test: a deliberate-violation fixture must fail (exit 1).
# A checker that passes everything is worse than no checker — this
# catches a dpulint build whose rules have gone inert.
"$dpulint_bin" --root tools/dpulint/testdata \
    --sources violations/hot_alloc --design none --quiet >/dev/null 2>&1
selftest=$?
if [ "$selftest" -ne 1 ]; then
  echo "lint: dpulint self-test failed — violation fixture exited $selftest, expected 1" >&2
  exit 1
fi

echo "lint: dpulint over src/ (design sync: DESIGN.md)" >&2
if ! "$dpulint_bin" --root . --compile-commands "$build_dir/compile_commands.json"; then
  echo "lint: dpulint reported findings (treat as build failure)" >&2
  exit 1
fi

# -------------------------------------------------------- 2. clang-tidy

if ! command -v clang-tidy >/dev/null 2>&1; then
  if [ "${CI:-}" = "true" ]; then
    echo "lint: clang-tidy not found in PATH and CI=true — the hosted lanes" >&2
    echo "lint: pin clang-tidy (see .github/workflows/ci.yml); a missing tool" >&2
    echo "lint: there means the wall silently lost a layer. Failing." >&2
    exit 1
  fi
  echo "lint: clang-tidy not found in PATH; skipping (install clang-tidy to enforce)" >&2
  exit 0
fi

# Lint first-party sources: src/ and tools/adtc (tools/dpulint lints
# itself through the same wall). Generated .pb.cc files are
# machine-written and excluded explicitly — the '*.cc' glob would pull
# them in otherwise.
mapfile -t files < <(find src tools/adtc tools/dpulint \
    \( -name '*.cpp' -o -name '*.cc' \) ! -name '*.pb.cc' \
    ! -path '*/testdata/*' | sort)

run_tidy() {  # run_tidy <label> <extra-args...> -- <files...>
  local label="$1"; shift
  local extra=()
  while [ "$1" != "--" ]; do extra+=("$1"); shift; done
  shift
  echo "lint: clang-tidy ($label) over $# files ($build_dir)" >&2
  local status=0
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "$build_dir" -j "$jobs" "${extra[@]}" "$@" || status=$?
  else
    local f
    for f in "$@"; do
      clang-tidy -quiet -p "$build_dir" "${extra[@]}" "$f" || status=$?
    done
  fi
  return "$status"
}

status=0
run_tidy strict -- "${files[@]}" || status=$?

# bench/ and tests/ ride along under a relaxed profile: the checks that
# matter for harness code are the concurrency and lifetime ones; the
# style/performance fleet drowns fixture code in noise.
mapfile -t harness < <(find bench tests \
    \( -name '*.cpp' -o -name '*.cc' \) ! -name '*.pb.cc' | sort)
if [ "${#harness[@]}" -gt 0 ]; then
  run_tidy relaxed \
      -checks='-*,concurrency-*,bugprone-use-after-move,bugprone-dangling-handle,bugprone-infinite-loop' \
      -- "${harness[@]}" || status=$?
fi

if [ "$status" -ne 0 ]; then
  echo "lint: clang-tidy reported findings (treat as build failure)" >&2
  exit 1
fi
echo "lint: clean" >&2
