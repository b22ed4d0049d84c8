#!/usr/bin/env python3
"""Gate on benchmark regressions.

Two suites:

  solver (default)  - compares the cold 3-step allocation pivot total of a
      fresh BENCH_solver.json (the sum of lp_pivots over the
      BM_ResourceManagerMilp cases) against the checked-in baseline and
      fails when it regressed by more than the allowed fraction. Pivot
      counters are deterministic (seeded models, deterministic node budgets
      under LOKI_MILP_NO_TIME_LIMIT=1), so unlike wall times they are
      comparable across hosts and safe to gate CI on.

  dataplane         - compares per-benchmark items_per_second of the
      BM_DataPlane* throughput suite (BENCH_dataplane.json, raw
      google-benchmark format) against bench/BENCH_dataplane_baseline.json.
      Wall-clock throughput is host- and load-sensitive (the baseline host
      is a shared 1-vCPU VM where real time can run several times CPU
      time), so the default slack is much wider than the solver gate's and
      the baseline should be regenerated (scripts/bench.sh --suite
      dataplane --rebaseline) when moving to different hardware.

  serving           - same throughput gate over the BM_Serving* suite
      (routing draws, forward hops, the 96-worker e2e epoch) against
      bench/BENCH_serving_baseline.json. Run via scripts/bench.sh --suite
      serving.

  fault             - the fault-subsystem gate (scripts/bench.sh --suite
      fault: BM_Fault* suite against bench/BENCH_fault_baseline.json). On top of
      the usual throughput comparison it reads BM_FaultGate.bit_identical
      (must be 1: an armed-but-inert fault plane left every simulation
      metric bit-identical — injection-off passivity) and bounds the
      *simulated* BM_FaultRecoveryCycle.detect_latency_s / recovery_s
      against the baseline (deterministic under the pinned seed, so a tight
      10% bound is safe across hosts).

  overload          - the graceful-degradation gate (scripts/bench.sh
      --suite overload: BM_Overload* suite against
      bench/BENCH_overload_baseline.json). On top
      of the usual throughput comparison it reads BM_OverloadGate.
      bit_identical (must be 1: tiers armed with unreachable watermarks +
      fallback chain with no deadline left every simulation metric
      bit-identical — degradation-off passivity) and the BM_OverloadTiered
      simulated outcomes, which are deterministic under the pinned seed and
      gated as absolute invariants: accounting_exact == 1 (per-tier
      arrivals == completions + drops), shed_tier0 == 0 (priority-aware
      shedding falls exclusively on tiers 1-2), and tier0_attainment >=
      0.99 (the strict tier rides out the flash crowd and the mid-burst
      crash).

  obs               - the observability overhead gate (scripts/bench.sh
      --suite obs: BM_Obs* suite against bench/BENCH_obs_baseline.json). On
      top of the
      usual throughput comparison it reads the BM_ObsOverheadGate counters:
      bit_identical must be 1 (tracing on/off left every simulation metric
      bit-identical) and overhead_frac — the paired tracing-on vs
      tracing-off wall-time ratio on the 96-worker serving e2e epoch — must
      not exceed --max-overhead (default 3%).

All emitted bench JSON carries a top-level "version" field (the scripts
inject it); candidate and baseline must both match SCHEMA_VERSION so schema
drift fails loudly instead of comparing incomparable reports.

Usage: check_bench_regression.py CANDIDATE.json
                                 [--suite solver|dataplane|serving|obs|fault|
                                          overload]
                                 [--baseline PATH] [--max-regress FRACTION]
                                 [--max-overhead FRACTION]
Exit codes: 0 ok, 1 regression, 2 usage/malformed input.
"""

import argparse
import json
import sys

COLD_BENCH_PREFIX = "BM_ResourceManagerMilp/"
DATAPLANE_PREFIX = "BM_DataPlane"
SERVING_PREFIX = "BM_Serving"
OBS_PREFIX = "BM_Obs"
OVERHEAD_BENCH = "BM_ObsOverheadGate"
FAULT_PREFIX = "BM_Fault"
FAULT_GATE_BENCH = "BM_FaultGate"
FAULT_CYCLE_BENCH = "BM_FaultRecoveryCycle"
# Simulated (host-independent) outcome counters bounded by the fault gate.
FAULT_SIM_COUNTERS = ("detect_latency_s", "recovery_s")
FAULT_SIM_SLACK = 0.10
OVERLOAD_PREFIX = "BM_Overload"
OVERLOAD_GATE_BENCH = "BM_OverloadGate"
OVERLOAD_TIERED_BENCH = "BM_OverloadTiered"
# Deterministic simulated invariants of the tiered flash-crowd scenario:
# (counter, minimum) — absolute bounds, not baseline-relative.
OVERLOAD_INVARIANTS = (
    ("accounting_exact", 1.0),
    ("tier0_attainment", 0.99),
)
# Counters that must be exactly zero (strict tier never shed).
OVERLOAD_ZERO_COUNTERS = ("shed_tier0",)

# Bump when the meaning of the gated quantities changes (counter renames,
# unit changes, ...). Baselines are regenerated by the bench_*.sh scripts.
SCHEMA_VERSION = 1


def load_report(report_path):
    with open(report_path) as f:
        report = json.load(f)
    version = report.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{report_path}: bench JSON schema version {version!r} != "
            f"expected {SCHEMA_VERSION}; regenerate with the matching "
            f"scripts/bench_*.sh")
    return report


def cold_pivot_total(report_path):
    report = load_report(report_path)
    total = 0.0
    cases = 0
    for bench in report.get("benchmarks", []):
        if not bench.get("name", "").startswith(COLD_BENCH_PREFIX):
            continue
        if "lp_pivots" not in bench:
            raise ValueError(f"{bench['name']} has no lp_pivots counter")
        total += bench["lp_pivots"]
        cases += 1
    if cases == 0:
        raise ValueError(
            f"no {COLD_BENCH_PREFIX}* benchmarks in {report_path}")
    return total, cases


def suite_throughputs(report_path, prefix):
    """name -> items_per_second for each benchmark matching `prefix`.

    Prefers the *_mean aggregate when the report was generated with
    repetitions; falls back to the plain entry otherwise. The aggregate
    suffix is stripped so candidate and baseline match regardless of how
    either was generated.
    """
    report = load_report(report_path)
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


def run_solver_gate(args):
    base_total, base_cases = cold_pivot_total(args.baseline)
    cand_total, cand_cases = cold_pivot_total(args.candidate)
    limit = base_total * (1.0 + args.max_regress)
    verdict = "OK" if cand_total <= limit else "REGRESSION"
    print(f"cold 3-step allocation pivots: candidate {cand_total:.0f} "
          f"({cand_cases} cases) vs baseline {base_total:.0f} "
          f"({base_cases} cases); limit {limit:.0f} "
          f"[+{100 * args.max_regress:.0f}%] -> {verdict}")
    if cand_total > limit:
        print("If this increase is intended (e.g. a deliberate trade-off), "
              "regenerate the baseline with scripts/bench.sh --suite solver "
              "and commit bench/BENCH_solver_baseline.json.", file=sys.stderr)
        return 1
    return 0


def run_throughput_gate(args, prefix, rebaseline_hint):
    base = suite_throughputs(args.baseline, prefix)
    cand = suite_throughputs(args.candidate, prefix)
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
              f"changed, regenerate the baseline with {rebaseline_hint} "
              f"and commit it.", file=sys.stderr)
        return 1
    return 0


def overhead_counters(report_path):
    """(overhead_frac, bit_identical) from the BM_ObsOverheadGate rows.

    Prefers the _mean aggregate (repetitions average overhead_frac and leave
    bit_identical at 1.0 only when every repetition matched).
    """
    report = load_report(report_path)
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


def bench_counters(report_path, bench_name, required):
    """Counters of the `bench_name` row (prefers the _mean aggregate).

    `required` is the counter whose presence marks a data-carrying row (the
    *_cv / *_stddev aggregates carry relative values and are skipped).
    """
    report = load_report(report_path)
    plain = None
    mean = None
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith(bench_name):
            continue
        if required not in bench:
            continue
        if name.endswith("_mean"):
            mean = bench
        elif bench.get("run_type", "iteration") == "iteration":
            plain = bench
    picked = mean if mean is not None else plain
    if picked is None:
        raise ValueError(
            f"no {bench_name} row with {required} in {report_path}")
    return picked


def run_fault_gate(args):
    failed = run_throughput_gate(
        args, FAULT_PREFIX, "scripts/bench.sh --suite fault --rebaseline") != 0

    gate = bench_counters(args.candidate, FAULT_GATE_BENCH, "bit_identical")
    identical = gate["bit_identical"]
    ident_ok = identical >= 1.0
    print(f"{FAULT_GATE_BENCH}: bit_identical {identical:.0f} -> "
          f"{'OK' if ident_ok else 'VIOLATION'}")
    if not ident_ok:
        print("The armed-but-inert fault plane perturbed the simulation: a "
              "default run and one with an enabled detector + never-firing "
              "plan disagreed on at least one metric. Injection-off "
              "passivity must hold (no extra RNG draws, no reordered "
              "events).", file=sys.stderr)
        failed = True

    # Simulated detection/recovery outcomes: deterministic under the pinned
    # seed, so bound them tightly against the committed baseline.
    cand = bench_counters(args.candidate, FAULT_CYCLE_BENCH,
                          FAULT_SIM_COUNTERS[0])
    base = bench_counters(args.baseline, FAULT_CYCLE_BENCH,
                          FAULT_SIM_COUNTERS[0])
    for counter in FAULT_SIM_COUNTERS:
        if counter not in cand or counter not in base:
            print(f"{FAULT_CYCLE_BENCH}.{counter}: MISSING", file=sys.stderr)
            failed = True
            continue
        limit = base[counter] * (1.0 + FAULT_SIM_SLACK)
        ok = cand[counter] <= limit
        print(f"{FAULT_CYCLE_BENCH}.{counter}: candidate "
              f"{cand[counter]:.3f} s vs baseline {base[counter]:.3f} s; "
              f"limit {limit:.3f} [+{100 * FAULT_SIM_SLACK:.0f}%] -> "
              f"{'OK' if ok else 'REGRESSION'}")
        if not ok:
            print(f"Simulated {counter} regressed: failures are detected or "
                  f"recovered from more slowly than the committed baseline. "
                  f"If the detector/re-plan change is intended, regenerate "
                  f"with scripts/bench.sh --suite fault --rebaseline and "
                  f"commit bench/BENCH_fault_baseline.json.", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def run_overload_gate(args):
    failed = run_throughput_gate(
        args, OVERLOAD_PREFIX,
        "scripts/bench.sh --suite overload --rebaseline") != 0

    gate = bench_counters(args.candidate, OVERLOAD_GATE_BENCH,
                          "bit_identical")
    identical = gate["bit_identical"]
    ident_ok = identical >= 1.0
    print(f"{OVERLOAD_GATE_BENCH}: bit_identical {identical:.0f} -> "
          f"{'OK' if ident_ok else 'VIOLATION'}")
    if not ident_ok:
        print("The armed-but-inert degradation machinery perturbed the "
              "simulation: a default run and one with tiers enabled "
              "(unreachable watermarks) + fallback chain (no deadline) "
              "disagreed on at least one metric. Degradation-off passivity "
              "must hold (no extra RNG draws, no reordered events).",
              file=sys.stderr)
        failed = True

    # Simulated flash-crowd outcomes: deterministic under the pinned seed,
    # so they are absolute invariants, not baseline-relative bounds.
    tiered = bench_counters(args.candidate, OVERLOAD_TIERED_BENCH,
                            "accounting_exact")
    for counter, minimum in OVERLOAD_INVARIANTS:
        value = tiered.get(counter)
        if value is None:
            print(f"{OVERLOAD_TIERED_BENCH}.{counter}: MISSING",
                  file=sys.stderr)
            failed = True
            continue
        ok = value >= minimum
        print(f"{OVERLOAD_TIERED_BENCH}.{counter}: {value:.4f} vs minimum "
              f"{minimum:.2f} -> {'OK' if ok else 'VIOLATION'}")
        if not ok:
            failed = True
    for counter in OVERLOAD_ZERO_COUNTERS:
        value = tiered.get(counter)
        if value is None:
            print(f"{OVERLOAD_TIERED_BENCH}.{counter}: MISSING",
                  file=sys.stderr)
            failed = True
            continue
        ok = value == 0.0
        print(f"{OVERLOAD_TIERED_BENCH}.{counter}: {value:.0f} -> "
              f"{'OK' if ok else 'VIOLATION'}")
        if not ok:
            print("Strict-tier queries were shed under the flash crowd: "
                  "priority-aware shedding must fall exclusively on tiers "
                  "1-2 in the gated scenario.", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def run_obs_gate(args):
    overhead, identical = overhead_counters(args.candidate)
    failed = run_throughput_gate(
        args, OBS_PREFIX, "scripts/bench.sh --suite obs --rebaseline") != 0

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
    ap.add_argument("--suite",
                    choices=("solver", "dataplane", "serving", "obs",
                             "fault", "overload"),
                    default="solver")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default depends on --suite)")
    ap.add_argument("--max-regress", type=float, default=None,
                    help="allowed fractional regression over baseline "
                         "(default: solver 0.20, others 0.35)")
    ap.add_argument("--max-overhead", type=float, default=0.03,
                    help="obs suite: allowed tracing-on overhead fraction "
                         "on the paired e2e epoch (default 0.03)")
    args = ap.parse_args()
    if args.baseline is None:
        args.baseline = {
            "solver": "bench/BENCH_solver_baseline.json",
            "dataplane": "bench/BENCH_dataplane_baseline.json",
            "serving": "bench/BENCH_serving_baseline.json",
            "obs": "bench/BENCH_obs_baseline.json",
            "fault": "bench/BENCH_fault_baseline.json",
            "overload": "bench/BENCH_overload_baseline.json",
        }[args.suite]
    if args.max_regress is None:
        args.max_regress = 0.20 if args.suite == "solver" else 0.35

    try:
        if args.suite == "solver":
            return run_solver_gate(args)
        if args.suite == "serving":
            return run_throughput_gate(
                args, SERVING_PREFIX,
                "scripts/bench.sh --suite serving --rebaseline")
        if args.suite == "obs":
            return run_obs_gate(args)
        if args.suite == "fault":
            return run_fault_gate(args)
        if args.suite == "overload":
            return run_overload_gate(args)
        return run_throughput_gate(
            args, DATAPLANE_PREFIX,
            "scripts/bench.sh --suite dataplane --rebaseline")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
