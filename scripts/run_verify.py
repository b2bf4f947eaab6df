#!/usr/bin/env python3
"""Run the oracle cross-check suite and write the JSON report.

Usage:
  python scripts/run_verify.py [--suite all] [--out verify_report.json]
Each check's line gives its measured value as a percentage of its tolerance
("pass/fail" for a tolerance-0 check).  Exit status 0 if every check passed, 1
otherwise.
"""

import argparse
import json
import sys
import time

from spikesep.harness.verify import run_verify


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="all")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    t0 = time.time()
    report = run_verify(args.suite)
    report["elapsed_seconds"] = round(time.time() - t0, 1)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        margin = "pass/fail" if check["margin"] is None else f"{100 * check['margin']:.2g}% of tol"
        print(f"{mark} {check['suite']}.{check['name']} ({check['seconds']:.1f}s): "
              f"measured {check['measured']:.3e} (tol {check['tolerance']:.0e}, {margin}) "
              f"{check['detail']}")
    print(f"{report['n_checks'] - report['n_failed']}/{report['n_checks']} checks passed "
          f"in {report['elapsed_seconds']}s")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
