"""Regenerate the shipped references under perfbench/refs/.

    python3 perfbench/make_refs.py exact     # exact-n500 reference curves and scans
    python3 perfbench/make_refs.py l1        # MC L1 bounds and beta=1 reference histograms
    python3 perfbench/make_refs.py digests   # bit-identity digests for REF_SEEDS

Run from the repository root at the commit whose outputs define "correct".
A later change must not regenerate them to make its own outputs pass.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from spikesep.harness.config import ExperimentConfig  # noqa: E402
from spikesep.harness.experiments import empirical_density_curve, run_density_experiment  # noqa: E402

REF_SEEDS = tuple(range(0, 11))
REF_PASSES = {"mc-small": 32, "mc-large": 20}
CALIBRATION_SEEDS = 100
# L1 bound = mean + 8 standard deviations over the calibration seeds: far
# beyond seed-to-seed noise (the largest seen is ~4 sd out), yet tight enough
# to fail a beta=2 GUE sampler whose diagonal variance is 1 instead of 1/2
L1_SIGMAS = 8.0
BETA1_REFERENCE_TRIALS = 100_000


def _write(name: str, data) -> None:
    wl.REFS.mkdir(exist_ok=True)
    (wl.REFS / name).write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {wl.REFS / name}")


def exact() -> None:
    refs = {}
    for op in wl.exact_ops():
        out = op.run()
        if op.label.startswith("scan"):
            spike = float(op.label.split("spike=")[1])
            refs[op.label] = wl.scan_summary(out, spike)
        else:
            refs[op.label] = {"values": out.values.tolist()}
    _write("exact_n500.json", refs)


def l1() -> None:
    bounds = {}
    for workload in wl.MC_SETS:
        trials = wl.MC_SETS[workload][2]
        bounds[workload] = {}
        for label, model, grid, bins, beta in wl.mc_configs(workload):
            entry = {}
            if beta == 1:
                config = ExperimentConfig(kind="mc", model=model, grid=grid, trials=BETA1_REFERENCE_TRIALS,
                                          bins=bins, beta=1,
                                          master_seed=wl.derived_seed("reference", workload, label))
                entry["reference"] = empirical_density_curve(model, config).values.tolist()
            dists = []
            for i in range(CALIBRATION_SEEDS):
                config = ExperimentConfig(kind="mc", model=model, grid=grid, trials=trials, bins=bins,
                                          beta=beta,
                                          master_seed=wl.derived_seed("calibration", workload, label, i))
                exact, empirical, report = run_density_experiment(config)
                dists.append(report.l1_distance if exact is not None
                             else wl.l1_distance(empirical.grid, empirical.values, entry["reference"]))
            mean, sd = statistics.mean(dists), statistics.stdev(dists)
            entry.update(calibration_mean=mean, calibration_sd=sd, calibration_max=max(dists),
                         max_l1=float(f"{mean + L1_SIGMAS * sd:.3g}"))
            bounds[workload][label] = entry
            print(workload, label, entry["max_l1"], "max seen", max(dists))
    _write("mc_l1.json", bounds)


def digests() -> None:
    out = {}
    for workload, passes in REF_PASSES.items():
        out[workload] = {}
        for seed in REF_SEEDS:
            per_label: dict = {}
            for p in range(passes):
                for op in wl.mc_ops(workload, seed, p):
                    _, captured = op.run()
                    per_label.setdefault(op.label, []).append(wl.mc_digest(*captured[0]))
            out[workload][str(seed)] = per_label
            print(workload, "seed", seed, "done", flush=True)
    _write("mc_digests.json", out)


if __name__ == "__main__":
    jobs = {"exact": exact, "l1": l1, "digests": digests}
    names = sys.argv[1:] or list(jobs)
    for name in names:
        if name not in jobs:
            sys.exit(f"unknown job {name!r}; choose from {sorted(jobs)}")
        jobs[name]()
