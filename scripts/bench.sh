#!/usr/bin/env bash
# Bench runner for every google-benchmark suite: builds the suite's targets
# in Release, runs them, writes BENCH_<suite>.json (google-benchmark format
# plus the top-level schema "version") and gates it with
# scripts/check_bench_regression.py --suite <suite> against
# bench/BENCH_<suite>_baseline.json.
#
#   suite      binary (filter)               MILP node budget  --quick
#   solver     abl_solver, tab_runtime_overhead,  yes           short runs
#              abl_allocator (own branch below)
#   dataplane  bm_dataplane (^BM_DataPlane)  no                skips the gate
#   serving    bm_dataplane (^BM_Serving)    no                skips the gate
#   obs        bm_obs (^BM_Obs)              yes               lifts the floor
#   fault      bm_fault (^BM_Fault)          yes               lifts the floor
#   overload   bm_overload (^BM_Overload)    yes               lifts the floor
#
# What each gate checks is documented in check_bench_regression.py. The
# wall-clock throughput floors ship with a wide default slack (-35%),
# because real time on shared hosts can run several times CPU time;
# rebaseline when moving hardware. "Lifts the floor" means --quick still
# gates the host-independent checks (bit_identical passivity, overhead
# ratio, simulated detection/recovery times, per-tier outcomes) and only
# disables the cross-run throughput comparison. The MILP node budget
# (LOKI_MILP_NO_TIME_LIMIT=1) makes the solves deterministic, so paired
# gate arms and pivot counters reproduce across hosts.
#
# The solver suite merges abl_solver and tab_runtime_overhead into
# BENCH_solver.json (per-op wall time plus the solver counters), writes the
# cross-epoch warm-start ablation to BENCH_allocator.json next to it (the
# run fails if warm and cold plans diverge), and leaves gating to a
# separate `check_bench_regression.py BENCH_solver.json` step.
#
# Usage: scripts/bench.sh --suite <name> [--quick] [--rebaseline] [out.json]
#   --quick       one repetition, short min-time (CI smoke; noisy numbers)
#   --rebaseline  copy the fresh report over the committed baseline instead
#                 of gating against it (not for the solver suite)
# BENCH_BUILD_DIR lets CI reuse its existing Release tree instead of
# configuring a second one.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
  echo "usage: $0 --suite solver|dataplane|serving|obs|fault|overload" \
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
  solver)    binary=abl_solver ;;
  dataplane) binary=bm_dataplane filter='^BM_DataPlane' milp_budget=0
             quick_gates=0 ;;
  serving)   binary=bm_dataplane filter='^BM_Serving' milp_budget=0
             quick_gates=0 ;;
  obs)       binary=bm_obs       filter='^BM_Obs' ;;
  fault)     binary=bm_fault     filter='^BM_Fault' ;;
  overload)  binary=bm_overload  filter='^BM_Overload' ;;
  *) usage ;;
esac
targets=("$binary")
if [[ "$suite" == solver ]]; then
  targets+=(tab_runtime_overhead abl_allocator)
  if [[ "$rebaseline" == 1 ]]; then
    echo "the solver suite has no baseline to rebaseline here" >&2
    exit 2
  fi
fi
out_json="${out_json:-BENCH_${suite}.json}"

build_dir="${BENCH_BUILD_DIR:-build-release}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
if [[ ! -d "$build_dir" ]]; then
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
if ! cmake --build "$build_dir" -j "$jobs" --target "${targets[@]}" \
      2>/dev/null; then
  echo "bench targets unavailable (Google Benchmark not installed?)" >&2
  exit 3
fi
if [[ "$milp_budget" == 1 ]]; then
  export LOKI_MILP_NO_TIME_LIMIT=1
fi

# google-benchmark >= 1.8 wants a unit suffix on --benchmark_min_time and
# deprecates the bare double; older releases reject the suffix outright.
# Probe which spelling this libbenchmark accepts.
min_time=()
if [[ "$quick" == 1 ]]; then
  if "$build_dir/$binary" --benchmark_min_time=0.01s \
       --benchmark_list_tests >/dev/null 2>&1; then
    min_time=(--benchmark_min_time=0.01s)
  else
    min_time=(--benchmark_min_time=0.01)
  fi
fi

if [[ "$suite" == solver ]]; then
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  "$build_dir/abl_solver" "${min_time[@]}" \
    --benchmark_out="$tmpdir/abl_solver.json" --benchmark_out_format=json
  "$build_dir/tab_runtime_overhead" "${min_time[@]}" \
    --benchmark_filter='BM_RawSimplex|BM_ResourceManagerMilp|BM_ResourceManagerSteadyReplan' \
    --benchmark_out="$tmpdir/tab_runtime_overhead.json" \
    --benchmark_out_format=json

  # Non-zero exit means warm and cold plans diverged — a correctness
  # failure, not a perf regression.
  alloc_json="$(dirname "$out_json")/BENCH_allocator.json"
  [[ "$alloc_json" == */* ]] || alloc_json="BENCH_allocator.json"
  "$build_dir/abl_allocator" --json="$alloc_json" > "$tmpdir/abl_allocator.log" \
    || { echo "abl_allocator failed (warm/cold plan divergence?)" >&2;
         tail -n 20 "$tmpdir/abl_allocator.log" >&2; exit 4; }
  tail -n 12 "$tmpdir/abl_allocator.log"

  python3 - "$tmpdir" "$out_json" <<'PYEOF'
import json
import sys

tmpdir, out_path = sys.argv[1], sys.argv[2]
merged = {"benchmarks": []}
for name in ("abl_solver", "tab_runtime_overhead"):
    with open(f"{tmpdir}/{name}.json") as f:
        report = json.load(f)
    merged.setdefault("context", report.get("context", {}))
    for b in report.get("benchmarks", []):
        entry = {
            "binary": name,
            "name": b["name"],
            "real_time_ns": b["real_time"] * {"ns": 1, "us": 1e3,
                                              "ms": 1e6, "s": 1e9}[b["time_unit"]],
        }
        for key, value in b.items():
            # google-benchmark flattens user counters into the benchmark
            # object; pick up the solver counters by name.
            if key in ("pivots", "bound_flips", "pivots_per_resolve",
                       "warm_fraction", "lp_pivots", "phase1_pivots",
                       "nodes", "warm_hits", "cold_solves",
                       "epoch_warm_hits", "epoch_cache_skips", "milp_solves",
                       "devex_resets", "presolve_rows_removed",
                       "presolve_cols_removed", "near_warm_hits"):
                entry[key] = value
        merged["benchmarks"].append(entry)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
print(f"wrote {out_path} ({len(merged['benchmarks'])} benchmarks)")
PYEOF

  scripts/stamp_bench_version.py "$out_json"
  exit 0
fi

# bm_dataplane hosts both the BM_DataPlane* and BM_Serving* suites; the
# filter keeps the two runs disjoint.
bench_args=(--benchmark_filter="$filter"
            --benchmark_out="$out_json" --benchmark_out_format=json)
if [[ "$quick" == 1 ]]; then
  bench_args+=("${min_time[@]}")
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
