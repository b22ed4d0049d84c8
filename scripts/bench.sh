#!/usr/bin/env bash
# Bench runner for the google-benchmark gate suites: builds the suite's
# binary in Release, runs it, writes BENCH_<suite>.json (google-benchmark
# format plus the top-level schema "version") and gates it with
# scripts/check_bench_regression.py --suite <suite> against
# bench/BENCH_<suite>_baseline.json.
#
#   suite      binary (filter)               MILP node budget  --quick
#   dataplane  bm_dataplane (^BM_DataPlane)  no                skips the gate
#   serving    bm_dataplane (^BM_Serving)    no                skips the gate
#   obs        bm_obs (^BM_Obs)              yes               lifts the floor
#
# What each gate checks is documented in check_bench_regression.py. The
# wall-clock throughput floors ship with a wide default slack (-35%),
# because real time on shared hosts can run several times CPU time;
# rebaseline when moving hardware. "Lifts the floor" means --quick still
# gates the host-independent checks (bit_identical passivity and the
# overhead ratio) and only disables the cross-run throughput comparison.
# The MILP node budget (LOKI_MILP_NO_TIME_LIMIT=1) makes the solves
# deterministic, so the paired gate arms reproduce across hosts.
#
# Usage: scripts/bench.sh --suite <name> [--quick] [--rebaseline] [out.json]
#   --quick       one repetition, short min-time (CI smoke; noisy numbers)
#   --rebaseline  copy the fresh report over the committed baseline instead
#                 of gating against it
# BENCH_BUILD_DIR lets CI reuse its existing Release tree instead of
# configuring a second one.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
  echo "usage: $0 --suite dataplane|serving|obs" \
       "[--quick] [--rebaseline] [output.json]" >&2
  exit 2
}

suite=""
quick=0
rebaseline=0
out_json=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --suite) [[ $# -ge 2 ]] || usage; suite="$2"; shift ;;
    --quick) quick=1 ;;
    --rebaseline) rebaseline=1 ;;
    *.json) out_json="$1" ;;
    *) usage ;;
  esac
  shift
done

# Per-suite table: binary, benchmark filter, MILP node budget, and whether
# --quick keeps the gate (lifting only the throughput floor) or skips it.
milp_budget=1
quick_gates=1
case "$suite" in
  dataplane) binary=bm_dataplane filter='^BM_DataPlane' milp_budget=0
             quick_gates=0 ;;
  serving)   binary=bm_dataplane filter='^BM_Serving' milp_budget=0
             quick_gates=0 ;;
  obs)       binary=bm_obs       filter='^BM_Obs' ;;
  *) usage ;;
esac
out_json="${out_json:-BENCH_${suite}.json}"

build_dir="${BENCH_BUILD_DIR:-build-release}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
if [[ ! -d "$build_dir" ]]; then
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
if ! cmake --build "$build_dir" -j "$jobs" --target "$binary" 2>/dev/null; then
  echo "bench targets unavailable (Google Benchmark not installed?)" >&2
  exit 3
fi
if [[ "$milp_budget" == 1 ]]; then
  export LOKI_MILP_NO_TIME_LIMIT=1
fi

# bm_dataplane hosts both the BM_DataPlane* and BM_Serving* suites; the
# filter keeps the two runs disjoint.
bench_args=(--benchmark_filter="$filter"
            --benchmark_out="$out_json" --benchmark_out_format=json)
if [[ "$quick" == 1 ]]; then
  # google-benchmark >= 1.8 wants a unit suffix on --benchmark_min_time and
  # deprecates the bare double; older releases reject the suffix outright.
  # Probe which spelling this libbenchmark accepts.
  if "$build_dir/$binary" --benchmark_min_time=0.01s \
       --benchmark_list_tests >/dev/null 2>&1; then
    bench_args+=(--benchmark_min_time=0.01s)
  else
    bench_args+=(--benchmark_min_time=0.01)
  fi
else
  bench_args+=(--benchmark_repetitions=3
               --benchmark_report_aggregates_only=true)
fi
"$build_dir/$binary" "${bench_args[@]}"

scripts/stamp_bench_version.py "$out_json"

baseline="bench/BENCH_${suite}_baseline.json"
if [[ "$rebaseline" == 1 ]]; then
  cp "$out_json" "$baseline"
  echo "rebaselined $baseline from $out_json"
elif [[ "$quick" == 1 && "$quick_gates" == 0 ]]; then
  echo "(--quick run: skipping the regression gate; numbers too noisy)"
else
  gate_args=(--suite "$suite")
  if [[ "$quick" == 1 ]]; then
    gate_args+=(--max-regress 1000000)
    echo "(--quick run: throughput floor disabled; gating the" \
         "host-independent checks only)"
  fi
  python3 scripts/check_bench_regression.py "$out_json" "${gate_args[@]}"
fi
