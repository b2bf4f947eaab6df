#!/usr/bin/env python3
"""Run the perfbench workloads and write the results to BENCH_<tag>.json.

    python3 scripts/bench.py --tag after --seed 1
    python3 scripts/bench.py --tag before --root ../parent-checkout

Every workload runs for perfbench's default 16 s three times with --trace 0
(end-to-end metrics) and once with --trace 1 (per-layer metrics).  One run
cannot resolve a workload whose run-to-run spread is wider than a metric's
bound, so the file also records, per workload, each end-to-end metric's
median and quartiles over its untraced runs ("summary").
perfbench/run.py runs from the checkout at --root (default: this
repository), so the same script measures the tree before and after a
change; the file is always written to this repository's root.  Each run
keeps perfbench's result line, notes and provenance as printed.  The file
also records the --root tree's commit and whether its src/ differs from
that commit ("dirty"), so a run of an uncommitted tree is not taken for its
parent.  Nothing under perfbench/ is written; traced runs leave their span
file in .bench_out/, as perfbench does.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-n500", "mc-small", "mc-large", "pointwise")
UNTRACED_RUNS = 3


def run_one(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; its result, notes and provenance lines parsed from stdout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    run = {"workload": workload, "trace": trace, "command": cmd[1:], "returncode": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        for key in ("notes", "provenance"):
            if line.startswith(key + " "):
                run[key] = json.loads(line[len(key) + 1:])
    if proc.returncode == 0 and lines:
        run["result"] = json.loads(lines[-1])
    else:
        run["stderr"] = proc.stderr.strip().splitlines()[-20:]
    return run


def summarize(runs: list) -> dict:
    """Per workload and end-to-end metric: median and quartiles of the correct untraced runs."""
    values: dict = {}
    for run in runs:
        result = run.get("result", {})
        if run["trace"] == 0 and result.get("correct", False):
            for name, metric in result["metrics"].items():
                values.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, vals in metrics.items():
            q1, median, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                              if len(vals) > 1 else vals * 3)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "runs": len(vals)}
    return summary


def tree_state(root: Path) -> dict:
    """The commit checked out at root and whether src/ has changes git reports against it."""

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src")
    return {"commit": head.strip() if head else None,
            "dirty": None if status is None else bool(status.strip())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="the output is BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", type=Path, default=REPO, help="checkout whose perfbench runs")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {root}")
    runs = []
    for workload in WORKLOADS:
        for trace in (0,) * UNTRACED_RUNS + (1,):
            run = run_one(root, workload, args.seed, trace)
            ok = run.get("result", {}).get("correct", False)
            print(f"{workload} trace {trace}: {'correct' if ok else 'FAILED'}", flush=True)
            runs.append(run)
    out = REPO / f"BENCH_{args.tag}.json"
    record = {"tag": args.tag, "seed": args.seed, "root": tree_state(root),
              "summary": summarize(runs), "runs": runs}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(REPO)}")
    return 0 if all(run.get("result", {}).get("correct", False) for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
