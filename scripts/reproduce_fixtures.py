#!/usr/bin/env python3
"""Run every golden fixture end to end and write profiles plus a JSON report.

Usage: python3 scripts/reproduce_fixtures.py [--out OUT_DIR] [--fixtures a,b,...]
"""

import argparse
import json
import os
import sys
import time

from convexiwave.fixtures import FIXTURE_NAMES
from convexiwave.runner import run_fixture


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fixture_runs")
    ap.add_argument("--fixtures", default=",".join(FIXTURE_NAMES),
                    help="comma-separated subset to run")
    args = ap.parse_args()

    names = [n for n in args.fixtures.split(",") if n]
    if not names:
        ap.error(f"--fixtures={args.fixtures!r} names no fixture")
    unknown = [n for n in names if n not in FIXTURE_NAMES]
    if unknown:
        ap.error(f"unknown fixture(s) {', '.join(unknown)}; known: {', '.join(FIXTURE_NAMES)}")
    os.makedirs(args.out, exist_ok=True)
    reports = []
    all_ok = True
    for name in names:
        t0 = time.perf_counter()
        report = run_fixture(name, out_dir=args.out)
        report["seconds"] = round(time.perf_counter() - t0, 2)
        reports.append(report)
        status = "PASS" if report["passed"] else "FAIL"
        print(f"{name:10s} {status}  ({report['seconds']}s)")
        all_ok &= report["passed"]

    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump(reports, f, indent=2)
    print(f"report written to {os.path.join(args.out, 'report.json')}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
