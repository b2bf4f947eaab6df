"""spikesep benchmark: one seeded workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload exact-n500 --seed 1 --seconds 16 --trace 0

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  Load is closed-loop with one client in one process:
each operation starts after the previous one returned.  Operations run in
whole passes over the workload's list, at least three, until `--seconds` of
operation time have been spent, so every run mixes the operations in the
same proportions.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same passes
untraced and then traced and prints the per-layer metrics.  The last stdout
line is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKERS_ENV = "SPIKESEP_WORKERS"
SETUP_PROBES = 3
# exact-n500 passes take 10-20 s and the machine's speed drifts by tens of
# percent over minutes, so its timed runs span three passes, not one or two
MIN_PASSES = 3
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
OUT_DIR = ROOT / ".bench_out"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def blas_info() -> dict:
    """BLAS build and the thread count it will use (numpy's bundled OpenBLAS)."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    if threads is None:
        raw = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
        threads = int(raw) if raw else os.cpu_count()
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"), "threads": threads}


def thread_budget() -> dict:
    nproc = len(os.sched_getaffinity(0))
    raw = os.environ.get(WORKERS_ENV, "")
    workers = int(raw) if raw else 1
    blas = blas_info()
    return {"nproc": nproc, "workers_env": raw or None, "workers": workers, "blas": blas,
            "threads": workers * blas["threads"]}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spikesep").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, budget: dict) -> dict:
    import numpy as np
    import scipy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": budget["blas"],
        "SPIKESEP_WORKERS": budget["workers_env"],
        "nproc": budget["nproc"],
        "seed": seed,
    }


def run_op(op, stats: dict):
    """Time one operation, then check it outside the timed region."""
    t0 = perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as exc:  # a raising operation is a failed operation
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    stats["attempted"] += 1
    if error is not None:
        stats["failed"] += 1
        if len(stats["errors"]) < 20:
            stats["errors"].append(f"{op.label}: {error}")
    else:
        stats["work"] += op.work
    return elapsed, error is None


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0, "work": 0, "errors": []}


def run_passes(workload, stats, seconds=None, passes=None, tracer=None, windows=None,
               min_passes=MIN_PASSES):
    """Exactly `passes` whole passes, or at least `min_passes` until `seconds` of op time.

    Returns the latencies and the number of passes run.
    """
    latencies = []
    p = 0
    while (p < passes) if passes is not None else (p < min_passes or sum(latencies) < seconds):
        for op in workload.ops(p):
            first = len(tracer.spans) if tracer else 0
            if tracer:
                tracer.active = True
            elapsed, _ = run_op(op, stats)
            if tracer:
                tracer.active = False
                windows.append((first, len(tracer.spans), elapsed))
            latencies.append(elapsed)
        p += 1
    return latencies, p


def tail(latencies):
    """Highest sample with TAIL_BEYOND samples above it, with its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def setup_probe(workload_name: str, seed: int) -> int:
    """Child process: import, build inputs, one cold operation, report."""
    from workloads import Workload

    workload = Workload(workload_name, seed)
    stats = new_stats()
    run_op(workload.ops(0)[0], stats)
    print(json.dumps({"ok": stats["failed"] == 0, "errors": stats["errors"]}), flush=True)
    return 0


def measure_setup(workload_name: str, seed: int, stats: dict) -> list:
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--probe"]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
            child.wait(timeout=120)
        stats["attempted"] += 1
        try:
            report = json.loads(line)
        except json.JSONDecodeError:
            report = {"ok": False, "errors": [f"setup probe exited {child.returncode}"]}
        if not report["ok"]:
            stats["failed"] += 1
            stats["errors"].extend(f"setup: {e}" for e in report["errors"])
        times.append(elapsed)
    return times


def end_to_end(workload, seconds: float, seed: int) -> tuple:
    stats = new_stats()
    setups = measure_setup(workload.name, seed, stats)
    run_op(workload.ops(0)[0], stats)  # untimed warm-up
    latencies, passes = run_passes(workload, stats, seconds=seconds)
    tail_value, tail_pct, n = tail(latencies)
    busy = sum(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "work_per_s": (stats["work"] / busy, "work/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_ratio": ((stats["attempted"] - stats["failed"]) / stats["attempted"], "ratio"),
    }
    notes = {"work_unit": workload.work_unit, "passes": passes, "ops": n, "op_seconds": busy,
             "op_tail_percentile": round(tail_pct, 2), "op_tail_samples_beyond": min(TAIL_BEYOND, n - 1),
             "setup_samples_s": setups, "fail_ratio": stats["failed"] / stats["attempted"]}
    return stats, metrics, notes


def traced(workload, seconds: float, seed: int) -> tuple:
    from tracing import Tracer, layer_metrics, missing_spans

    stats = new_stats()
    run_op(workload.ops(0)[0], stats)  # untimed warm-up
    # per-layer metrics are per operation, so two passes are enough here
    plain, passes = run_passes(workload, stats, seconds=seconds / 2.0, min_passes=2)
    tracer = Tracer()
    tracer.install()
    windows = []
    try:
        with_spans, _ = run_passes(workload, stats, passes=passes, tracer=tracer, windows=windows)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, windows, len(with_spans))
    metrics["trace.overhead_s"] = ((sum(with_spans) - sum(plain)) / len(with_spans), "s/op")
    missing = missing_spans(tracer.spans, workload.name)
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    dump.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "count", "bytes"],
                                "spans": tracer.spans, "ops": windows}))
    notes = {"passes": passes, "ops": len(with_spans), "untraced_s": sum(plain),
             "traced_s": sum(with_spans), "spans": len(tracer.spans),
             "missing_boundaries": missing, "span_file": str(dump.relative_to(ROOT))}
    return stats, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spikesep" / "__init__.py").is_file():
        return _fail(f"program source not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    budget = thread_budget()
    if budget["threads"] > budget["nproc"]:
        return _fail(f"would use {budget['workers']} worker(s) x {budget['blas']['threads']} BLAS "
                     f"threads = {budget['threads']} > nproc = {budget['nproc']}")
    import spikesep

    if Path(spikesep.__file__).resolve().parent != SRC / "spikesep":
        return _fail(f"imported spikesep from {spikesep.__file__}, not from {SRC}")
    from workloads import WORKLOADS, Workload

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.probe:
        return setup_probe(args.workload, args.seed)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    prov = provenance(args.seed, budget)
    workload = Workload(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    stats, metrics, notes = measure(workload, args.seconds, args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  op_tail_s is the p{notes['op_tail_percentile']} latency of {notes['ops']} operations "
              f"({notes['op_tail_samples_beyond']} beyond it)")
    for error in stats["errors"]:
        print(f"  FAILED {error}")
    print("notes " + json.dumps(notes))
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
