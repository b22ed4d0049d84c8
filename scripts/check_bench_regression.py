#!/usr/bin/env python3
"""Gate on benchmark regressions.

Three suites:

  dataplane         - compares per-benchmark items_per_second of the
      BM_DataPlane* throughput suite (BENCH_dataplane.json, raw
      google-benchmark format) against bench/BENCH_dataplane_baseline.json.
      Wall-clock throughput is host- and load-sensitive (the baseline host
      is a shared 1-vCPU VM where real time can run several times CPU
      time), so the default slack is wide and the baseline should be
      regenerated (scripts/bench.sh --suite dataplane --rebaseline) when
      moving to different hardware.

  serving           - same throughput gate over the BM_Serving* suite
      (routing draws, forward hops, the 96-worker e2e epoch) against
      bench/BENCH_serving_baseline.json. Run via scripts/bench.sh --suite
      serving.

  obs               - the observability overhead gate (scripts/bench.sh
      --suite obs: BM_Obs* suite against bench/BENCH_obs_baseline.json). On
      top of the usual throughput comparison it reads the
      BM_ObsOverheadGate counters: bit_identical must be 1 (tracing on/off
      left every simulation metric bit-identical) and overhead_frac — the
      paired tracing-on vs tracing-off wall-time ratio on the 96-worker
      serving e2e epoch — must not exceed --max-overhead (default 3%).

All emitted bench JSON carries a top-level "version" field (the scripts
inject it); candidate and baseline must both match SCHEMA_VERSION so schema
drift fails loudly instead of comparing incomparable reports.

Usage: check_bench_regression.py CANDIDATE.json
                                 --suite dataplane|serving|obs
                                 [--baseline PATH] [--max-regress FRACTION]
                                 [--max-overhead FRACTION]
Exit codes: 0 ok, 1 regression, 2 usage/malformed input.
"""

import argparse
import json
import sys

from stamp_bench_version import SCHEMA_VERSION

DATAPLANE_PREFIX = "BM_DataPlane"
SERVING_PREFIX = "BM_Serving"
OBS_PREFIX = "BM_Obs"
OVERHEAD_BENCH = "BM_ObsOverheadGate"


def load_report(report_path, suite):
    with open(report_path) as f:
        report = json.load(f)
    version = report.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{report_path}: bench JSON schema version {version!r} != "
            f"expected {SCHEMA_VERSION}; regenerate it with "
            f"scripts/bench.sh --suite {suite} (add --rebaseline for the "
            f"committed baseline)")
    return report


def suite_throughputs(report_path, suite, prefix):
    """name -> items_per_second for each benchmark matching `prefix`.

    Prefers the *_mean aggregate when the report was generated with
    repetitions; falls back to the plain entry otherwise. The aggregate
    suffix is stripped so candidate and baseline match regardless of how
    either was generated.
    """
    report = load_report(report_path, suite)
    plain = {}
    means = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith(prefix):
            continue
        if "items_per_second" not in bench:
            continue  # aggregate rows like *_cv carry relative values
        if name.endswith("_mean"):
            means[name[:-len("_mean")]] = bench["items_per_second"]
        elif bench.get("run_type", "iteration") == "iteration":
            plain[name] = bench["items_per_second"]
    merged = dict(plain)
    merged.update(means)  # aggregates win over per-repetition rows
    if not merged:
        raise ValueError(
            f"no {prefix}* benchmarks with items_per_second "
            f"in {report_path}")
    return merged


def run_throughput_gate(args, prefix):
    base = suite_throughputs(args.baseline, args.suite, prefix)
    cand = suite_throughputs(args.candidate, args.suite, prefix)
    failed = []
    for name in sorted(base):
        if name not in cand:
            print(f"{name}: MISSING from candidate", file=sys.stderr)
            failed.append(name)
            continue
        floor = base[name] * (1.0 - args.max_regress)
        ok = cand[name] >= floor
        print(f"{name}: candidate {cand[name]:,.0f} items/s vs baseline "
              f"{base[name]:,.0f}; floor {floor:,.0f} "
              f"[-{100 * args.max_regress:.0f}%] -> "
              f"{'OK' if ok else 'REGRESSION'}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"Throughput regressed. If the drop is intended or the host "
              f"changed, regenerate the baseline with scripts/bench.sh "
              f"--suite {args.suite} --rebaseline and commit it.",
              file=sys.stderr)
        return 1
    return 0


def overhead_counters(report_path, suite):
    """(overhead_frac, bit_identical) from the BM_ObsOverheadGate rows.

    Prefers the _mean aggregate (repetitions average overhead_frac and leave
    bit_identical at 1.0 only when every repetition matched).
    """
    report = load_report(report_path, suite)
    plain = None
    mean = None
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith(OVERHEAD_BENCH):
            continue
        if "overhead_frac" not in bench:
            continue  # *_cv / *_stddev rows carry relative values
        row = (bench["overhead_frac"], bench.get("bit_identical", 0.0))
        if name.endswith("_mean"):
            mean = row
        elif bench.get("run_type", "iteration") == "iteration":
            plain = row
    picked = mean if mean is not None else plain
    if picked is None:
        raise ValueError(
            f"no {OVERHEAD_BENCH} row with overhead_frac in {report_path}")
    return picked


def run_obs_gate(args):
    overhead, identical = overhead_counters(args.candidate, args.suite)
    failed = run_throughput_gate(args, OBS_PREFIX) != 0

    ident_ok = identical >= 1.0
    print(f"{OVERHEAD_BENCH}: bit_identical {identical:.0f} -> "
          f"{'OK' if ident_ok else 'VIOLATION'}")
    if not ident_ok:
        print("Tracing perturbed the simulation: tracing-on and tracing-off "
              "epochs disagreed on at least one metric. The tracer must stay "
              "passive (no RNG draws, no scheduled events).", file=sys.stderr)
        failed = True

    over_ok = overhead <= args.max_overhead
    print(f"{OVERHEAD_BENCH}: overhead_frac {overhead:+.4f} vs bound "
          f"{args.max_overhead:.2f} -> {'OK' if over_ok else 'REGRESSION'}")
    if not over_ok:
        print("Always-on tracing costs more than the allowed fraction of "
              "e2e throughput. Cheapen the hot-path instrumentation (or "
              "raise the sampling period) before raising --max-overhead.",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("candidate", help="freshly generated benchmark JSON")
    ap.add_argument("--suite", choices=("dataplane", "serving", "obs"),
                    required=True)
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default: "
                         "bench/BENCH_<suite>_baseline.json)")
    ap.add_argument("--max-regress", type=float, default=0.35,
                    help="allowed fractional throughput regression over "
                         "the baseline (default 0.35)")
    ap.add_argument("--max-overhead", type=float, default=0.03,
                    help="obs suite: allowed tracing-on overhead fraction "
                         "on the paired e2e epoch (default 0.03)")
    args = ap.parse_args()
    if args.baseline is None:
        args.baseline = f"bench/BENCH_{args.suite}_baseline.json"

    try:
        if args.suite == "obs":
            return run_obs_gate(args)
        prefix = {"dataplane": DATAPLANE_PREFIX,
                  "serving": SERVING_PREFIX}[args.suite]
        return run_throughput_gate(args, prefix)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
