#!/usr/bin/env bash
# The repository benchmark's one command. It builds loki_bench (Release) into
# build-bench/ at the repository root, then:
#
#   benchmark/run.sh
#       runs every workload in its own process, untraced (end-to-end metrics)
#       and traced (per-layer metrics), prints every metric with its unit and
#       writes bench_out/benchmark.json (read by benchmark/compare.py);
#   benchmark/run.sh --smoke
#       runs every workload at a tenth of its duration and checks that the
#       timed bench.loki-milp strategy is bit-identical to plain loki-milp;
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       runs one workload in one process; the last line on stdout is the
#       JSON result {"correct", "attempted", "failed", "metrics"}.
#
# Exits non-zero when the build fails or any correctness or determinism
# check fails. Build output goes to stderr so stdout stays parseable.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build_dir="$root/build-bench"
out_dir="$root/bench_out"
workloads=(diurnal replan-storm flash-degrade steady-sharded)

cmake -S "$here" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build_dir" --target loki_bench -j "$(nproc)" >&2
bench="$build_dir/loki_bench"

# Stop at the checkout: a copy nested in another repository is not that
# repository's commit.
sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

if [[ $# -gt 0 && "$1" != "--smoke" ]]; then
  exec "$bench" --git-sha "$sha" --out-dir "$out_dir" "$@"
fi

status=0
if [[ $# -gt 0 ]]; then
  for w in "${workloads[@]}"; do
    "$bench" --workload "$w" --seed 1 --smoke --git-sha "$sha" || status=1
  done
  exit "$status"
fi

results=()
for w in "${workloads[@]}"; do
  rm -f "$out_dir/$w.json" "$out_dir/$w.trace.json"
  "$bench" --workload "$w" --seed 1 --reps 5 --trace 0 \
    --git-sha "$sha" --out-dir "$out_dir" || status=1
  "$bench" --workload "$w" --seed 1 --reps 9 --trace 1 \
    --git-sha "$sha" --out-dir "$out_dir" || status=1
  results+=("$out_dir/$w.json" "$out_dir/$w.trace.json")
done

{
  printf '{"runs": ['
  sep=""
  for f in "${results[@]}"; do
    printf '%s' "$sep"
    cat "$f"
    sep=","
  done
  printf ']}\n'
} > "$out_dir/benchmark.json"
echo "results: $out_dir/benchmark.json"
[[ "$status" -eq 0 ]] || echo "run.sh: a correctness or determinism check failed" >&2
exit "$status"
