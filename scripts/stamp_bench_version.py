#!/usr/bin/env python3
"""Stamp a bench JSON report with the gate schema version.

google-benchmark has no hook for custom top-level fields, so
scripts/bench.sh runs this after generating each report.
check_bench_regression.py imports SCHEMA_VERSION from here and refuses
candidate or baseline reports whose "version" does not match it, so renamed
counters / changed units fail loudly instead of being compared across
meanings.

Usage: stamp_bench_version.py REPORT.json [REPORT2.json ...]
"""

import json
import sys

# Bump when the meaning of the gated quantities changes (counter renames,
# unit changes, ...), then regenerate the baselines with
# scripts/bench.sh --suite <name> --rebaseline.
SCHEMA_VERSION = 1


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in sys.argv[1:]:
        with open(path) as f:
            report = json.load(f)
        report["version"] = SCHEMA_VERSION
        with open(path, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        print(f"stamped {path} with bench schema version {SCHEMA_VERSION}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
