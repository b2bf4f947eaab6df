"""Figure presets: the seven standard density/onset plots as CSV + SVG data.

Each preset returns {"files": [...], "reports": {...}} and is fully determined
by (preset name, master seed); outputs are byte-reproducible.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..kernels import (
    ShiftedChiral,
    ShiftedGUE,
    SpikedLUE,
    kernel_gue,
    kernel_laguerre,
)
from ..spectra import DensityCurve
from .config import ComparisonReport, ExperimentConfig, GridSpec
from .emit import emit_csv, emit_svg
from .experiments import (
    _scan_point,
    clamped_curve,
    compare_curves,
    empirical_density_curve,
    exact_density_curve,
)

__all__ = ["FIGURE_PRESETS", "run_figure"]


def _window_l1(curve_a: DensityCurve, curve_b: DensityCurve, lo: float, hi: float) -> float:
    """L1 distance of the two curves restricted to [lo, hi], each unit-normalized."""
    mask = (curve_a.grid >= lo) & (curve_a.grid <= hi)
    g = curve_a.grid[mask]
    a = curve_a.values[mask]
    b = np.interp(g, curve_b.grid, curve_b.values)
    a = a / np.trapezoid(a, g)
    b = b / np.trapezoid(b, g)
    return float(np.trapezoid(np.abs(a - b), g))


def _gue_curve(order: int, grid: np.ndarray, center: float = 0.0, tag: str = "") -> DensityCurve:
    u = grid - center
    vals = kernel_gue(order, u, u)
    return clamped_curve(grid, vals, {"model": tag or f"gue n={order}", "kind": "exact"})


def _lue_curve(order: int, a: float, grid: np.ndarray, scale: float = 1.0, tag: str = "") -> DensityCurve:
    """Density of the order x order LUE with parameter a, eigenvalues scaled by 1/scale."""
    u = np.maximum(scale * grid, 1e-300)
    vals = scale * kernel_laguerre(order, a, u, u)
    return clamped_curve(grid, vals, {"model": tag or f"lue n={order} a={a:g}", "kind": "exact"})


def _chiral_curve(order: int, a: float, grid: np.ndarray, tag: str = "") -> DensityCurve:
    vals = np.zeros(grid.shape)
    pos = grid > 0
    x = grid[pos]
    vals[pos] = 2.0 * x * kernel_laguerre(order, a, x * x, x * x)
    return clamped_curve(grid, vals, {"model": tag or f"chiral m={order} a={a:g}", "kind": "exact"})


def fig1(outdir: Path, master_seed: int, trials: int = 200_000) -> dict:
    """Shifted GUE, N=15, r=5, shift 15: two-lobe density with MC overlay."""
    model = ShiftedGUE(15, 5, 15.0)
    grid = np.linspace(-7.0, 22.0, 727)
    exact = exact_density_curve(model, grid)
    bulk = _gue_curve(10, grid, tag="gue n=10")
    lobe = _gue_curve(5, grid, center=15.0, tag="gue n=5 at 15")
    config = ExperimentConfig(
        kind="mc", model=model, grid=GridSpec(-7.0, 22.0, 727), trials=trials,
        bins=145, master_seed=master_seed,
    )
    empirical = empirical_density_curve(model, config)
    report = compare_curves(exact, empirical)
    # against the r x r GUE at exactly c the lobe misses by its (N-r)/(2c)
    # displacement; both the literal and the recentered comparison are reported
    report.pass_flags["right_lobe_l1_ok"] = _window_l1(exact, lobe, 8.0, 22.0) < 0.05
    recentered = _gue_curve(5, grid, center=15.0 + 10.0 / 30.0, tag="gue n=5 recentered")
    report.pass_flags["right_lobe_recentered_l1_ok"] = _window_l1(exact, recentered, 8.0, 22.0) < 0.05
    files = [
        emit_csv([exact, bulk, lobe], report, outdir / "fig1_exact.csv"),
        emit_csv([empirical], report, outdir / "fig1_mc.csv"),
        emit_svg([exact, bulk, lobe, empirical], outdir / "fig1.svg"),
    ]
    return {"files": files, "reports": {"fig1": report}}


def _scan_curves(config, label):
    """The scan's exact curves (meta 'spike' set) and its reports keyed '<label>=<spike>'."""
    grid = config.grid.points()
    curves, reports = [], {}
    for spike in config.spikes:
        curve, reports[f"{label}={spike:g}"] = _scan_point(config, spike, grid)
        curve.meta["spike"] = spike
        curves.append(curve)
    return curves, reports


def _onset_figure(base_model, spikes, grid_spec, name, outdir, master_seed, inset_grid):
    config = ExperimentConfig(kind="scan", model=base_model, grid=grid_spec,
                              master_seed=master_seed, spikes=spikes)
    curves, reports = _scan_curves(config, f"{name} spike")
    inset = exact_density_curve(base_model.respike(spikes[0]), inset_grid.points())
    files = [
        emit_csv(curves, None, outdir / f"{name}_edge.csv"),
        emit_csv([inset], None, outdir / f"{name}_inset.csv"),
        emit_svg(curves, outdir / f"{name}.svg"),
    ]
    return {"files": files, "reports": reports}


def fig2(outdir: Path, master_seed: int) -> dict:
    """Shifted GUE onset, N=500, r=1, shifts c*J/2 for c in {0, 1, 1.2, 2}."""
    j = math.sqrt(1000.0)
    return _onset_figure(
        ShiftedGUE(500, 1, 0.0), (0.0, 1.0, 1.2, 2.0),
        GridSpec(0.85 * j, 1.42 * j, 401), "fig2", outdir, master_seed,
        inset_grid=GridSpec(-1.1 * j, 1.1 * j, 501),
    )


def fig3(outdir: Path, master_seed: int) -> dict:
    """Spiked LUE, m=10, alpha=1/2, r=3, btilde=0.05: bulk and spike panels."""
    model = SpikedLUE(10, 0.5, 3, 0.05)
    grid_a = np.linspace(1e-3, 42.0, 601)
    exact_a = exact_density_curve(model, grid_a)
    bulk = _lue_curve(7, 0.5, grid_a, tag="lue n=7 a=0.5")
    grid_b = np.linspace(1e-3, 700.0, 701)
    exact_b = exact_density_curve(model, grid_b)
    lobe = _lue_curve(3, 7.5, grid_b, scale=0.05, tag="lue n=3 a=7.5 scaled")
    report = ComparisonReport()
    report.pass_flags["bulk_l1_ok"] = _window_l1(exact_a, bulk, 1e-3, 40.0) < 0.05
    # spike window starts past the inter-lobe gap (bulk tail < 1e-10 there)
    report.pass_flags["spike_l1_ok"] = _window_l1(exact_b, lobe, 80.0, 700.0) < 0.05
    files = [
        emit_csv([exact_a, bulk], report, outdir / "fig3a.csv"),
        emit_csv([exact_b, lobe], report, outdir / "fig3b.csv"),
        emit_svg([exact_a, bulk], outdir / "fig3a.svg"),
        emit_svg([exact_b, lobe], outdir / "fig3b.svg"),
    ]
    return {"files": files, "reports": {"fig3": report}}


def fig4(outdir: Path, master_seed: int) -> dict:
    """Spiked LUE onset, m=500, alpha=1/2, r=1, btilde in {0.5, 0.45, 0.275}."""
    model = SpikedLUE(500, 0.5, 1, 0.5)
    spikes = (0.5, 0.45, 0.275)
    grid = GridSpec(1700.0, 2950.0, 501)
    config = ExperimentConfig(kind="scan", model=model, grid=grid, master_seed=master_seed,
                              spikes=spikes)
    curves, reports = _scan_curves(config, "fig4 btilde")
    null = exact_density_curve(SpikedLUE(500, 0.5, 0, 1.0), grid.points())
    null.meta["spike"] = "none"
    inset = exact_density_curve(SpikedLUE(500, 0.5, 0, 1.0), np.linspace(1.0, 2100.0, 501))
    files = [
        emit_csv([null] + curves, None, outdir / "fig4_edge.csv"),
        emit_csv([inset], None, outdir / "fig4_inset.csv"),
        emit_svg([null] + curves, outdir / "fig4.svg"),
    ]
    return {"files": files, "reports": reports}


def fig5(outdir: Path, master_seed: int) -> dict:
    """Shifted chiral, m=15, alpha=4, r=5, c=15: bulk plus displaced GUE lobe."""
    model = ShiftedChiral(15, 4.0, 5, 15.0)
    grid = np.linspace(1e-3, 22.0, 727)
    exact = exact_density_curve(model, grid)
    bulk = _chiral_curve(10, 4.0, grid, tag="chiral m=10 a=4")
    lobe = _gue_curve(5, grid, center=15.0, tag="gue n=5 at 15")
    report = ComparisonReport(trace_exact=exact.mass())
    report.pass_flags["right_lobe_l1_ok"] = _window_l1(exact, lobe, 11.0, 19.0) < 0.05
    window = (grid >= 10.0) & (grid <= 21.0)
    lobe_mass = np.trapezoid(exact.values[window], grid[window])
    lobe_mean = np.trapezoid((grid * exact.values)[window], grid[window]) / lobe_mass
    recentered = _gue_curve(5, grid, center=lobe_mean, tag="gue n=5 recentered")
    report.pass_flags["right_lobe_recentered_l1_ok"] = (
        _window_l1(exact, recentered, 10.0, 21.0) < 0.05
    )
    report.pass_flags["bulk_l1_ok"] = _window_l1(exact, bulk, 1e-3, 9.5) < 0.05
    files = [
        emit_csv([exact, bulk, lobe], report, outdir / "fig5.csv"),
        emit_svg([exact, bulk, lobe], outdir / "fig5.svg"),
    ]
    return {"files": files, "reports": {"fig5": report}}


def fig6(outdir: Path, master_seed: int) -> dict:
    """Shifted chiral onset, m=500, alpha=2, r=1, shifts c*J/2, J=2*sqrt(m)."""
    j = 2.0 * math.sqrt(500.0)
    return _onset_figure(
        ShiftedChiral(500, 2.0, 1, 0.0), (0.0, 1.0, 1.2, 2.0),
        GridSpec(0.85 * j, 1.45 * j, 401), "fig6", outdir, master_seed,
        inset_grid=GridSpec(0.05, 1.1 * j, 501),
    )


def fig7(outdir: Path, master_seed: int) -> dict:
    """Spiked LUE, m=20, alpha=3, r=5, btilde=100: bulk and near-zero spike lobe."""
    model = SpikedLUE(20, 3.0, 5, 100.0)
    grid_a = np.linspace(1e-3, 95.0, 701)
    exact_a = exact_density_curve(model, grid_a)
    bulk = _lue_curve(15, 8.0, grid_a, tag="lue n=15 a=8")
    grid_b = np.linspace(1e-5, 0.6, 601)
    exact_b = exact_density_curve(model, grid_b)
    lobe = _lue_curve(5, 3.0, grid_b, scale=100.0, tag="lue n=5 a=3 scaled")
    report = ComparisonReport()
    report.pass_flags["bulk_l1_ok"] = _window_l1(exact_a, bulk, 1.0, 95.0) < 0.05
    report.pass_flags["spike_l1_ok"] = _window_l1(exact_b, lobe, 1e-5, 0.6) < 0.05
    files = [
        emit_csv([exact_a, bulk], report, outdir / "fig7a.csv"),
        emit_csv([exact_b, lobe], report, outdir / "fig7b.csv"),
        emit_svg([exact_a, bulk], outdir / "fig7a.svg"),
        emit_svg([exact_b, lobe], outdir / "fig7b.svg"),
    ]
    return {"files": files, "reports": {"fig7": report}}


FIGURE_PRESETS = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
}


def run_figure(name: str, outdir, master_seed: int = 1729, **kwargs) -> dict:
    if name not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; choose from {sorted(FIGURE_PRESETS)}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return FIGURE_PRESETS[name](outdir, master_seed, **kwargs)
