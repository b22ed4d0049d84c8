#!/usr/bin/env python3
"""Compare two benchmark result files under the bounds in BENCHMARK.json.

    python3 benchmark/compare.py BASE.json NEW.json

BASE and NEW are bench_out/benchmark.json files written by benchmark/run.sh.
For every end-to-end metric on every workload this prints both medians and
quartiles and one verdict:

  better        NEW is better by more than the run-to-run spread
  within bound  NEW is not worse than BASE by more than the metric's bound
  worse         NEW is worse than BASE by more than the bound
  unresolved    the spread is wider than the bound, so the data cannot
                tell; "better" only if every NEW run beats every BASE run

The spread is the larger quartile distance of the two files, as a share of
the median. For the host-time metrics it is at least their recorded drift
between run.sh sets (HOST_DRIFT): the runs in one file are back to back and
understate how far a median moves between two sets on the same commit.

The exit code is 1 when any row is "worse", 2 on unusable input, else 0.
"""
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Largest change of one workload's median between two run.sh sets on the same
# commit and host, as a share of the first, rounded up to the next percent
# (README, "Setting the bounds").
# Simulated metrics are bit-identical between sets and have no entry.
HOST_DRIFT = {"sim_qps": 0.44, "setup_s": 0.45, "peak_rss_mb": 0.14}


def load_runs(path):
    """{workload: {metric: {"values": [...], "unit": str}}} of untraced runs."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for run in doc["runs"]:
        if not run["traced"]:
            out[run["workload"]] = run["metrics"]
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rel_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound, drift=0.0):
    """Verdict for one (metric, workload) row; drift is a floor on the spread."""
    b_med = statistics.median(base)
    n_med = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    if b_med:
        worse_frac = sign * (n_med - b_med) / abs(b_med)
    else:
        worse_frac = 0.0 if n_med == b_med else math.copysign(math.inf, sign * n_med)
    spread = max(rel_spread(base), rel_spread(new), drift)
    if spread > bound:
        all_better = all(sign * (n - b) < 0 for n in new for b in base)
        return ("better" if all_better else "unresolved"), worse_frac, spread
    if worse_frac > bound:
        return "worse", worse_frac, spread
    if worse_frac < 0 and -worse_frac > spread:
        return "better", worse_frac, spread
    return "within bound", worse_frac, spread


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        spec = json.loads(BENCHMARK_JSON.read_text())
        base, new = load_runs(argv[1]), load_runs(argv[2])
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    worse = 0
    print(f"{'workload':15s} {'metric':22s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'change':>8s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            metric = m["name"]
            try:
                b = base[name][metric]["values"]
                n = new[name][metric]["values"]
            except KeyError:
                print(f"{name:15s} {metric:22s} missing from one file")
                worse += 1
                continue
            v, worse_frac, spread = verdict(b, n, m["better"], m["bound"],
                                            HOST_DRIFT.get(metric, 0.0))
            worse += v == "worse"
            # Signed change of NEW against BASE; + 0.0 avoids "-0.00%".
            change = (worse_frac if m["better"] == "lower" else -worse_frac) + 0.0
            bq, nq = quartiles(b), quartiles(n)
            b_s = f"{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
            n_s = f"{nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
            print(f"{name:15s} {metric:22s} {b_s:>36s} {n_s:>36s} "
                  f"{change:+8.2%} {spread:7.2%} {m['bound']:6.0%}  {v} "
                  f"({m['unit']}, {m['better']} is better)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
