#!/usr/bin/env python3
"""Run the perfbench workloads and write the results to BENCH_<tag>.json.

    python3 scripts/bench.py --tag after --seed 1
    python3 scripts/bench.py --tag before --root ../parent-checkout
    python3 scripts/bench.py --tag pairs --against ../parent-checkout --pairs 10 --workload exact-n500
    python3 scripts/bench.py --tag pr --root HEAD --against HEAD~1 --pairs 5

Every workload runs for perfbench's default 16 s --pairs times (default 3)
with --trace 0 (end-to-end metrics) and once with --trace 1 (per-layer
metrics).  One run cannot resolve a workload whose run-to-run spread is
wider than a metric's bound, so the file also records, per workload, each
end-to-end metric's median and quartiles over its untraced runs ("summary").
perfbench/run.py runs from the checkout at --root (default: this
repository), so the same script measures the tree before and after a
change; the file is always written to this repository's root.  --root and
--against take a directory or a git revision of this repository; a
revision is cloned into a temporary directory, measured there and removed,
so it is measured as committed, and its tree state records the full sha.  Each run
keeps perfbench's result line, notes and provenance as printed.  The file
also records the --root tree's commit, whether its src/ or perfbench/
differs from that commit ("dirty"), so a run of an uncommitted tree is not
taken for its parent, and its src line count ("src_lines").  Nothing under perfbench/ is
written; traced runs leave their span file in .bench_out/, as perfbench
does.

--against DIR names a parent checkout.  Each untraced run of --root is then
paired with one of DIR, the two run back to back and the side that runs
first alternating from pair to pair, so that drift in the machine's speed
falls on both sides alike.  The file adds the parent's tree state, runs and
summary ("against", "against_runs", "against_summary") and, per workload
and end-to-end metric, each pair's change/parent ratio and in how many
pairs the change was better ("pairs"), by the direction BENCHMARK.json
gives the metric; equal values count for neither side.
"""

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
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
    """The commit checked out at root, whether src/ or perfbench/ has changes
    git reports against it, and the line count of src/spikesep/**/*.py as it
    stands."""

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src", "perfbench")
    src_lines = sum(len(path.read_text().splitlines())
                    for path in (root / "src" / "spikesep").rglob("*.py"))
    return {"commit": head.strip() if head else None,
            "dirty": None if status is None else bool(status.strip()), "src_lines": src_lines}


def checkout(spec: str, repo: Path, clones: contextlib.ExitStack) -> Path:
    """The directory spec names, else a fresh clone of repo at the git revision
    spec, in a temporary directory that closing `clones` removes."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    sha = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}"],
                         cwd=repo, capture_output=True, text=True)
    if sha.returncode != 0:
        raise ValueError(f"{spec!r} is neither a directory nor a git revision of {repo}")
    clone = Path(clones.enter_context(tempfile.TemporaryDirectory(prefix="bench-")))
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(repo), str(clone)], check=True)
    subprocess.run(["git", "checkout", "--quiet", sha.stdout.strip()], cwd=clone, check=True)
    return clone


def pair_stats(parent_runs: list, change_runs: list) -> dict:
    """Per workload and end-to-end metric: each pair's change/parent ratio and
    how many pairs the change won (None where a side failed or read 0)."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}

    def untraced(runs, workload):
        return [run.get("result", {}) for run in runs
                if run["workload"] == workload and run["trace"] == 0]

    stats = {}
    for workload in dict.fromkeys(run["workload"] for run in change_runs):
        pairs = list(zip(untraced(parent_runs, workload), untraced(change_runs, workload)))
        stats[workload] = {}
        for name, direction in better.items():
            ratios, won = [], 0
            for parent, change in pairs:
                values = [side.get("metrics", {}).get(name, {}).get("value")
                          if side.get("correct", False) else None for side in (parent, change)]
                if None in values or values[0] == 0:
                    ratios.append(None)
                    continue
                ratios.append(values[1] / values[0])
                won += values[1] > values[0] if direction == "higher" else values[1] < values[0]
            stats[workload][name] = {"ratios": ratios, "change_better": won, "pairs": len(pairs)}
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="the output is BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", default=str(REPO),
                        help="checkout directory or git revision whose perfbench runs")
    parser.add_argument("--against",
                        help="parent checkout directory or git revision to alternate with --root")
    parser.add_argument("--pairs", type=int, default=UNTRACED_RUNS,
                        help="untraced runs per workload (pairs with --against)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default all)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as clones:
        try:
            trees = {side: checkout(spec, REPO, clones)
                     for side, spec in (("root", args.root), ("against", args.against))
                     if spec is not None}
        except ValueError as err:
            parser.error(str(err))
        return measure(args, trees, parser)


def measure(args, trees: dict, parser) -> int:
    """The runs of main on the checkouts `trees` ("root", and "against" if given)."""
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = {side: [] for side in trees}

    def measure_one(side, workload, trace):
        run = run_one(trees[side], workload, args.seed, trace)
        ok = run.get("result", {}).get("correct", False)
        print(f"{side} {workload} trace {trace}: {'correct' if ok else 'FAILED'}", flush=True)
        runs[side].append(run)

    for workload in args.workload or WORKLOADS:
        for i in range(args.pairs):
            for side in sorted(trees, reverse=i % 2 == 1):  # "against" first on even pairs
                measure_one(side, workload, 0)
        measure_one("root", workload, 1)
    out = REPO / f"BENCH_{args.tag}.json"
    record = {"tag": args.tag, "seed": args.seed, "root": tree_state(trees["root"]),
              "summary": summarize(runs["root"]), "runs": runs["root"]}
    if "against" in trees:
        pairs = pair_stats(runs["against"], runs["root"])
        record.update(against=tree_state(trees["against"]),
                      against_summary=summarize(runs["against"]), pairs=pairs,
                      against_runs=runs["against"])
        for workload, metrics in pairs.items():
            work = metrics["work_per_s"]
            known = [ratio for ratio in work["ratios"] if ratio is not None]
            median = statistics.median(known) if known else float("nan")
            print(f"{workload}: work_per_s change/parent median {median:.3f}, "
                  f"change better in {work['change_better']}/{work['pairs']}")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(REPO)}")
    every_run = [run for side in runs.values() for run in side]
    return 0 if all(run.get("result", {}).get("correct", False) for run in every_run) else 1


if __name__ == "__main__":
    sys.exit(main())
