"""Monte Carlo vs exact-density experiments and separation-onset scans.

Trial-level parallelism: each trial draws from its own counter-keyed stream,
so results are independent of chunking and worker count; histograms are
integer counts merged by chunk index, which makes full runs bit-reproducible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from ..ensembles import SeedStream
from ..spectra import DensityCurve
from .config import ComparisonReport, ExperimentConfig, worker_count

__all__ = [
    "clamped_curve",
    "exact_density_curve",
    "empirical_density_curve",
    "run_density_experiment",
    "run_onset_scan",
    "find_separated_peaks",
    "sample_batch",
]

_NEGATIVE_CLAMP = -1e-10  # roundoff-negative densities below this are an error


def clamped_curve(grid, values, meta: dict) -> DensityCurve:
    """DensityCurve of exact density values: a value below -1e-10 raises, and
    roundoff negatives above it are set to 0 and counted in meta["clamped"]
    (absent when there are none)."""
    values = np.asarray(values, dtype=float)
    if np.any(values < _NEGATIVE_CLAMP):
        raise ArithmeticError("exact density went negative beyond roundoff tolerance")
    clamped = int(np.count_nonzero(values < 0.0))
    if clamped:
        meta = {**meta, "clamped": clamped}
    return DensityCurve(grid, np.clip(values, 0.0, None), meta)


def exact_density_curve(model, grid: np.ndarray) -> DensityCurve:
    """Exact beta=2 density on the grid, through `clamped_curve`."""
    grid = np.asarray(grid, dtype=float)
    meta = {"model": model.tag, "mass": model.mass, "kind": "exact"}
    return clamped_curve(grid, model.density(grid), meta)


def sample_batch(model, beta: int, trials: int, master_seed: int, edges: np.ndarray,
                 workers: Optional[int] = None):
    """Histogram counts plus per-trial largest eigenvalues, reproducibly parallel.

    A chunk's matrices are built a sub-batch of at most 256 KiB at a time from
    the keyed streams of its trials, into one stack that is eigendecomposed in
    one call; counts are integers, so merging is exact and independent of
    chunking and worker count.
    """
    stream = SeedStream(master_seed)
    dim, build, post = model.trial_plan(beta)
    dtype = complex if beta == 2 else float
    edges = np.asarray(edges, dtype=float)
    workers = workers or worker_count()
    itemsize = np.dtype(dtype).itemsize
    chunk = int(max(1, min(2048, 6.4e7 // (dim * dim * itemsize))))
    sub = max(1, (1 << 18) // (dim * dim * itemsize))
    ranges = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    largest = np.empty(trials)

    def work(bounds):
        lo, hi = bounds
        mats = np.empty((hi - lo, dim, dim), dtype=dtype)
        for start in range(lo, hi, sub):
            stop = min(start + sub, hi)
            mats[start - lo : stop - lo] = build(stream.trials(start, stop))
        eigs = post(np.linalg.eigvalsh(mats))
        counts = np.histogram(eigs.ravel(), bins=edges)[0]
        return counts, eigs[:, -1]

    total = np.zeros(edges.size - 1, dtype=np.int64)
    if workers == 1:
        results = map(work, ranges)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, ranges))
    for (lo, hi), (counts, biggest) in zip(ranges, results):
        total += counts
        largest[lo:hi] = biggest
    return total, largest


def empirical_density_curve(model, config: ExperimentConfig) -> DensityCurve:
    """Histogram density over the config grid window, in per-matrix eigenvalue units."""
    edges = np.linspace(config.grid.lo, config.grid.hi, config.bins + 1)
    counts, largest = sample_batch(model, config.beta, config.trials, config.master_seed, edges)
    width = edges[1] - edges[0]
    values = counts / (config.trials * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    meta = {
        "model": model.tag,
        "mass": model.mass,
        "kind": "empirical",
        "seed": config.master_seed,
        "trials": config.trials,
        "beta": config.beta,
        "largest_mean": float(np.mean(largest)),
    }
    return DensityCurve(centers, values, meta)


def _normalized(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    mass = np.trapezoid(values, grid)
    if mass <= 0:
        raise ValueError("cannot normalize a zero-mass curve")
    return values / mass


def compare_curves(exact: DensityCurve, empirical: DensityCurve) -> ComparisonReport:
    """L1/sup distances on the empirical bin centers, both curves unit-normalized."""
    dens = np.interp(empirical.grid, exact.grid, exact.values)
    a = _normalized(dens, empirical.grid)
    b = _normalized(empirical.values, empirical.grid)
    report = ComparisonReport()
    report.l1_distance = float(np.trapezoid(np.abs(a - b), empirical.grid))
    report.sup_distance = float(np.max(np.abs(a - b)))
    report.trace_exact = exact.mass()
    report.trace_empirical = empirical.mass()
    return report


def run_density_experiment(config: ExperimentConfig):
    """Exact curve, empirical curve (if kind='mc'), and a comparison report."""
    if config.kind not in ("density", "mc"):
        raise ValueError("run_density_experiment handles kinds 'density' and 'mc'")
    if config.kind == "density" and config.beta != 2:
        raise ValueError("exact curves need beta = 2")
    exact = exact_density_curve(config.model, config.grid.points()) if config.beta == 2 else None
    empirical = empirical_density_curve(config.model, config) if config.kind == "mc" else None
    if exact is None:
        return None, empirical, ComparisonReport(trace_empirical=empirical.mass())
    report = (compare_curves(exact, empirical) if empirical is not None
              else ComparisonReport(trace_exact=exact.mass()))
    declared = config.model.mass
    report.pass_flags["grid_covers_support"] = bool(
        abs(report.trace_exact - declared) <= 0.01 * declared
    )
    return exact, empirical, report


# ---------------------------------------------------------------------------
# separation-onset scans

_REFINE_POINTS = 65  # evenly spaced samples per bracket and round: a round shrinks it 32x


def _refine_peaks(density, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Argmax of `density` in every bracket [lo, hi]: each round samples all live
    brackets in one density call and keeps the two cells around each largest sample."""
    lo, hi = lo.astype(float), hi.astype(float)
    while (live := hi - lo >= 1e-10 * np.maximum(1.0, np.abs(hi))).any():
        xs = np.linspace(lo[live], hi[live], _REFINE_POINTS, axis=1)
        vals = np.asarray(density(xs.ravel()), dtype=float).reshape(xs.shape)
        k = np.clip(np.argmax(vals, axis=1), 1, _REFINE_POINTS - 2)  # endpoint: its inner cells
        rows = np.arange(xs.shape[0])
        lo[live], hi[live] = xs[rows, k - 1], xs[rows, k + 1]
    return 0.5 * (lo + hi)


def find_separated_peaks(model, grid: np.ndarray, values: Optional[np.ndarray] = None) -> list:
    """Strict grid local maxima beyond 1.05 * bulk edge, refined by _refine_peaks.

    `values`, when given, is the density on `grid` and must have its shape.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(values if values is not None else model.density(grid), dtype=float)
    if vals.shape != grid.shape:
        raise ValueError(f"values shape {vals.shape} does not match grid shape {grid.shape}")
    mid = vals[1:-1]
    beyond = grid[1:-1] > 1.05 * model.bulk_edge
    i = 1 + np.flatnonzero(beyond & (mid > vals[:-2]) & (mid > vals[2:]))
    return _refine_peaks(model.density, grid[i - 1], grid[i + 1]).tolist()


def _scan_point(config: ExperimentConfig, spike: float, grid: np.ndarray):
    """(exact curve, ComparisonReport) of one scan spike on the grid."""
    model = config.model.respike(spike)
    curve = exact_density_curve(model, grid)
    peaks = find_separated_peaks(model, grid, curve.values)
    report = ComparisonReport(trace_exact=curve.mass())
    report.peak_locations = peaks
    pred = config.model.predictor(spike)
    report.predictor_location = pred.location
    if pred.above_threshold and pred.location is not None:
        report.pass_flags["peak_found"] = bool(peaks)
        if peaks:
            nearest = min(peaks, key=lambda p: abs(p - pred.location))
            report.pass_flags["peak_near_predictor"] = bool(
                abs(nearest - pred.location) <= 0.05 * pred.location
            )
    else:
        report.pass_flags["no_peak_expected"] = bool(not peaks)
    return curve, report


def run_onset_scan(config: ExperimentConfig) -> dict:
    """Exact-density peak search beyond the bulk edge for each spike value.

    Returns {spike: ComparisonReport}; a missing peak where the predictor says
    above-threshold sets pass_flags['peak_found'] = False (reported, not fatal).
    """
    if config.beta != 2:
        raise ValueError("exact-kernel scans need beta = 2")
    if not config.spikes:
        raise ValueError("scan needs at least one spike value")
    grid = config.grid.points()
    return {spike: _scan_point(config, spike, grid)[1] for spike in config.spikes}
