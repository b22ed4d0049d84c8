#!/usr/bin/env python3
"""Paired A/B runs of two loki_bench binaries on one workload.

    scripts/ab_pairs.py PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SECONDS] [SEED0]

Runs PAIRS pairs of processes, `--workload WORKLOAD --seed SEED0+i
--seconds SECONDS --trace 0`, one process of each binary per pair. The
side that runs first alternates from pair to pair. SECONDS defaults to
BENCHMARK.json's run_seconds, SEED0 to 1. Each run's result is the last
JSON line it prints.

For every end-to-end metric of BENCHMARK.json (read, never written) it
prints each side's median and quartiles (statistics.quantiles, as
loki_bench computes them), the change against the parent's median, and the
pairs the change won, then one verdict:

  GAIN          claimable: the change won at least 9 of 10 pairs (that
                share of PAIRS, rounded up) and its median beats the
                parent's by more than the parent's interquartile range
  WORSE         the median is worse than the parent's by more than the
                metric's bound
  identical     both sides printed the same value in every pair
  unresolved    the spread of one side (interquartile range over median)
                exceeds the bound, so the data cannot tell
  within bound  none of the above

For every metric whose values differ between the sides, it then prints
each pair's parent and change values in pair order, so a host that ran
slow for some processes (a bimodal spread) shows which pairs it hit.

It also prints the largest share of failed operations in one run of each
side ("failed" over "attempted"), flagged MORE when the change's is larger.

Exit code: 1 when a run fails or prints "correct": false, 2 on bad
arguments, 3 when a metric is WORSE or the failed share is MORE, else 0.
"""
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run(binary, workload, seed, seconds, out_dir):
    """Metrics and failed-operation share of one process."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0", "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{' '.join(cmd)} printed \"correct\": false")
    failed = result["failed"] / result["attempted"] if result["attempted"] else 0
    return {k: v["value"] for k, v in result["metrics"].items()}, failed


def verdict(parent, change, better, bound, pairs):
    """(verdict, signed change, pairs won, ties) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    rel = (c_med - p_med) / abs(p_med) if p_med else 0.0
    worse_frac = sign * rel
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if (won >= math.ceil(0.9 * pairs) and
            sign * (p_med - c_med) > p_q3 - p_q1):
        return "GAIN", rel, won, ties
    if worse_frac > bound:
        return "WORSE", rel, won, ties
    if ties == pairs:
        return "identical", rel, won, ties
    if spread > bound:
        return "unresolved", rel, won, ties
    return "within bound", rel, won, ties


def main(argv):
    if not 5 <= len(argv) <= 7:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    parent_bin, change_bin, workload = argv[1], argv[2], argv[3]
    pairs = int(argv[4])
    seconds = float(argv[5]) if len(argv) > 5 else spec["run_seconds"]
    seed0 = int(argv[6]) if len(argv) > 6 else 1
    if pairs < 1 or workload not in {w["name"] for w in spec["workloads"]}:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    runs = {"parent": [], "change": []}
    failed = {"parent": [], "change": []}
    bins = {"parent": parent_bin, "change": change_bin}
    with tempfile.TemporaryDirectory() as out_dir:
        for i in range(pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                try:
                    metrics, share = run(bins[side], workload, seed0 + i,
                                         seconds, out_dir)
                except (RuntimeError, ValueError, KeyError) as e:
                    print(f"ab_pairs.py: {side}: {e}", file=sys.stderr)
                    return 1
                runs[side].append(metrics)
                failed[side].append(share)
            print(f"pair {i + 1}/{pairs} (seed {seed0 + i}) done",
                  file=sys.stderr)

    print(f"{workload}: {pairs} pairs, seeds {seed0}..{seed0 + pairs - 1}, "
          f"--seconds {seconds:g} --trace 0")
    print(f"{'metric':22s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'change':>8s} {'won':>7s} "
          f"{'bound':>6s}  verdict")
    worse = False
    for m in spec["end_to_end"]:
        name = m["name"]
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        v, rel, won, ties = verdict(p, c, m["better"], m["bound"], pairs)
        worse = worse or v == "WORSE"
        pq, cq = quartiles(p), quartiles(c)
        p_s = f"{pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
        c_s = f"{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
        tie_s = f" ({ties} tied)" if ties and ties < pairs else ""
        print(f"{name:22s} {p_s:>36s} {c_s:>36s} {rel + 0.0:+8.2%} "
              f"{won:>3d}/{pairs:<3d} {m['bound']:6.0%}  {v}{tie_s} "
              f"({m['better']} is better)")
    differing = [m["name"] for m in spec["end_to_end"]
                 if any(p[m["name"]] != c[m["name"]]
                        for p, c in zip(runs["parent"], runs["change"]))]
    if differing:
        print("per pair, parent -> change, in pair order:")
        for name in differing:
            cells = "  ".join(f"{p[name]:.4g}->{c[name]:.4g}"
                              for p, c in zip(runs["parent"], runs["change"]))
            print(f"  {name:22s} {cells}")
    more = max(failed["change"]) > max(failed["parent"])
    print(f"failed operations (largest share in one run): parent "
          f"{max(failed['parent']):.2%}, change {max(failed['change']):.2%}"
          f"{'  MORE' if more else ''}")
    return 3 if worse or more else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
