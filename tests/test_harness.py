import hashlib
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from spikesep.harness.cli import main
from spikesep.harness.config import ComparisonReport, ExperimentConfig, GridSpec
from spikesep.harness.emit import emit_csv, emit_svg, parse_csv
from spikesep.harness.experiments import (
    exact_density_curve,
    find_separated_peaks,
    run_density_experiment,
    run_onset_scan,
    sample_batch,
)
from spikesep.harness.verify import run_verify
from spikesep.kernels import ShiftedChiral, ShiftedGUE, SpikedLUE
from spikesep.spectra import DensityCurve

FIGURE_DIGESTS = Path(__file__).resolve().parent / "data" / "figure_digests.json"
FIGURE_DIGESTS_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "figure_digests.py"


def _figure_digests_script():
    """scripts/figure_digests.py as a module: the figure test renders through it."""
    spec = importlib.util.spec_from_file_location("figure_digests_script", FIGURE_DIGESTS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small_mc_config(trials=400, seed=11, bins=41):
    return ExperimentConfig(
        kind="mc", model=ShiftedGUE(10, 2, 4.0), grid=GridSpec(-7.0, 9.0, 41),
        trials=trials, bins=bins, master_seed=seed,
    )


def test_csv_round_trip_exact(tmp_path):
    grid = np.linspace(-1.0, 1.0, 7)
    vals = np.abs(np.sin(grid) * 1e-3) + 1e-17
    curve = DensityCurve(grid, vals, {"model": "demo", "kind": "exact"})
    report = ComparisonReport(l1_distance=0.5, trace_exact=1.0)
    path = emit_csv([curve], report, tmp_path / "c.csv")
    meta, grid2, cols = parse_csv(path)
    assert np.array_equal(grid2, grid)
    assert np.array_equal(cols[0], vals)
    assert "report" in meta and json.loads(meta["report"])["l1_distance"] == 0.5


def test_csv_requires_common_grid(tmp_path):
    a = DensityCurve(np.linspace(0, 1, 5), np.ones(5))
    b = DensityCurve(np.linspace(0, 2, 5), np.ones(5))
    with pytest.raises(ValueError):
        emit_csv([a, b], None, tmp_path / "x.csv")


def test_svg_one_polyline_per_curve(tmp_path):
    grid = np.linspace(0, 1, 9)
    curves = [
        DensityCurve(grid, np.ones(9), {"model": "one"}),
        DensityCurve(grid, 2 * np.ones(9), {"model": "two"}),
    ]
    path = emit_svg(curves, tmp_path / "p.svg")
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "viewBox=\"0 0 800 500\"" in text


def test_mc_experiment_deterministic_and_worker_independent(tmp_path, monkeypatch):
    cfg = _small_mc_config()
    exact1, emp1, rep1 = run_density_experiment(cfg)
    monkeypatch.setenv("SPIKESEP_WORKERS", "3")
    exact2, emp2, rep2 = run_density_experiment(cfg)
    monkeypatch.delenv("SPIKESEP_WORKERS")
    assert np.array_equal(emp1.values, emp2.values)
    assert rep1.l1_distance == rep2.l1_distance
    p1 = emit_csv([emp1], rep1, tmp_path / "a.csv")
    p2 = emit_csv([emp2], rep2, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    q1 = emit_csv([exact1], rep1, tmp_path / "ea.csv")
    q2 = emit_csv([exact2], rep2, tmp_path / "eb.csv")
    assert q1.read_bytes() == q2.read_bytes()


def test_mc_reports_grid_coverage():
    cfg = _small_mc_config()
    _, _, report = run_density_experiment(cfg)
    assert report.pass_flags["grid_covers_support"]
    assert report.trace_exact == pytest.approx(10.0, abs=1e-3)
    assert report.l1_distance < 0.2


def test_onset_scan_small_case():
    j = math.sqrt(2.0 * 60)
    cfg = ExperimentConfig(
        kind="scan", model=ShiftedGUE(60, 1, 0.0), grid=GridSpec(0.8 * j, 1.8 * j, 301),
        spikes=(0.0, 2.5),
    )
    reports = run_onset_scan(cfg)
    assert reports[0.0].pass_flags["no_peak_expected"]
    assert reports[2.5].pass_flags["peak_found"]
    pred = reports[2.5].predictor_location
    peak = reports[2.5].peak_locations[0]
    assert abs(peak - pred) < 0.05 * pred


# The perfbench exact-n500 scan models at 2 threshold units (btilde = 0.275
# for the LUE), on that workload's grids.
_J500 = math.sqrt(1000.0)
_N500_SCANS = {
    "gue": (ShiftedGUE(500, 1, 0.0).respike(2.0), GridSpec(0.85 * _J500, 1.42 * _J500, 401)),
    "lue": (SpikedLUE(500, 0.5, 1, 0.5).respike(0.275), GridSpec(1700.0, 2950.0, 501)),
    "chiral": (ShiftedChiral(500, 2.0, 1, 0.0).respike(2.0),
               GridSpec(1.7 * math.sqrt(500.0), 2.9 * math.sqrt(500.0), 401)),
}


@pytest.fixture(scope="module", params=sorted(_N500_SCANS))
def n500_scan(request):
    """(model, grid, density on the grid) of one exact-n500 scan."""
    model, spec = _N500_SCANS[request.param]
    grid = spec.points()
    return model, grid, model.density(grid)


class _Counted:
    """Scan model wrapper that records the point count of every density call."""

    def __init__(self, model):
        self.model, self.calls = model, []

    @property
    def bulk_edge(self):
        return self.model.bulk_edge

    def density(self, x):
        self.calls.append(np.size(x))
        return self.model.density(x)


def _golden_peak(fn, lo, hi):
    """Golden-section maximum of a scalar fn on [lo, hi], to the refinement's stop rule."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a >= 1e-10 * max(1.0, abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def test_peak_refinement_makes_few_density_calls(n500_scan):
    model, grid, values = n500_scan
    counted = _Counted(model)
    peaks = find_separated_peaks(counted, grid, values)
    assert len(peaks) == 1
    assert 1 <= len(counted.calls) <= 6, counted.calls


def test_peak_refinement_matches_golden_section(n500_scan):
    model, grid, values = n500_scan
    cut = 1.05 * model.bulk_edge
    scalar = lambda x: float(model.density(np.array([x]))[0])
    expected = [_golden_peak(scalar, grid[i - 1], grid[i + 1]) for i in range(1, grid.size - 1)
                if grid[i] > cut and values[i - 1] < values[i] > values[i + 1]]
    peaks = find_separated_peaks(model, grid, values)
    assert len(peaks) == len(expected) == 1
    assert peaks[0] == pytest.approx(expected[0], rel=1e-7, abs=0.0)


class _TwoPeaks:
    """Laplace mixture with exact maxima at 3 and 7, beyond its bulk edge 1."""

    bulk_edge = 1.0

    def __init__(self):
        self.calls = []

    def density(self, x):
        x = np.asarray(x, dtype=float)
        self.calls.append(x.size)
        return np.exp(-np.abs(x - 3.0)) + 0.5 * np.exp(-np.abs(x - 7.0))


def test_two_peaks_are_refined_in_the_same_calls():
    stub = _TwoPeaks()
    grid = np.linspace(0.0, 10.0, 37)  # neither maximum is a grid point or a bracket centre
    values = stub.density(grid)
    stub.calls.clear()
    peaks = find_separated_peaks(stub, grid, values)
    assert len(peaks) == 2
    assert abs(peaks[0] - 3.0) <= 1e-9 and abs(peaks[1] - 7.0) <= 1e-9
    # one call per round: both brackets share the first call, and the slower
    # one (its stop rule is tighter at 3 than at 7) finishes alone
    assert len(stub.calls) <= 8
    assert stub.calls[0] == 2 * stub.calls[-1]
    assert all(size % stub.calls[-1] == 0 for size in stub.calls)


class _Line:
    """Density increasing (slope 1) or decreasing (slope -1) in x."""

    bulk_edge = 0.0

    def __init__(self, slope):
        self.slope = slope

    def density(self, x):
        return self.slope * np.asarray(x, dtype=float)


@pytest.mark.parametrize("slope, end", [(1.0, 3.0), (-1.0, 1.0)])
def test_peak_refinement_converges_to_a_bracket_endpoint(slope, end):
    # the grid values claim a peak at 2; the density keeps its maximum on an endpoint of [1, 3]
    grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    peaks = find_separated_peaks(_Line(slope), grid, np.array([0.0, 1.0, 2.0, 1.0, 0.0]))
    assert len(peaks) == 1
    assert abs(peaks[0] - end) <= 1e-9


@pytest.mark.parametrize("values", [np.zeros(40), np.zeros((41, 1))])
def test_find_separated_peaks_checks_values_shape(values):
    with pytest.raises(ValueError, match="shape"):
        find_separated_peaks(ShiftedGUE(6, 1, 3.0), np.linspace(-5.0, 9.0, 41), values)


def test_bulk_edges():
    assert ShiftedGUE(50, 1, 0.0).bulk_edge == pytest.approx(10.0)
    assert SpikedLUE(50, 1.0, 1, 0.5).bulk_edge == pytest.approx(200.0)
    assert ShiftedChiral(25, 1.0, 1, 0.0).bulk_edge == pytest.approx(10.0)


def test_exact_density_curve_meta():
    curve = exact_density_curve(ShiftedGUE(6, 1, 2.0), np.linspace(-6, 8, 101))
    assert curve.meta["mass"] == 6.0
    assert np.all(curve.values >= 0)


def test_exact_density_curve_rejects_nan():
    class NaNDensity:
        tag, mass = "nan density", 1.0

        def density(self, x):
            return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(ValueError):
        exact_density_curve(NaNDensity(), np.linspace(0.0, 1.0, 5))


class _StubDensity:
    tag, mass = "stub density", 1.0

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def density(self, x):
        return self.values


def test_exact_density_curve_counts_clamped_values():
    grid = np.linspace(0.0, 1.0, 4)
    curve = exact_density_curve(_StubDensity([1.0, -1e-12, 0.5, -1e-10]), grid)
    assert curve.meta["clamped"] == 2
    assert np.array_equal(curve.values, [1.0, 0.0, 0.5, 0.0])
    assert "clamped" not in exact_density_curve(_StubDensity([1.0, 0.0, 0.5, 0.2]), grid).meta
    with pytest.raises(ArithmeticError, match="negative"):
        exact_density_curve(_StubDensity([1.0, -2e-10, 0.5, 0.2]), grid)


def test_figure_curves_share_the_clamp(monkeypatch):
    from spikesep.harness import figures

    grid = np.linspace(0.25, 1.0, 4)
    curves = {
        "gue": lambda: figures._gue_curve(3, grid),
        "lue": lambda: figures._lue_curve(3, 0.5, grid),
        "chiral": lambda: figures._chiral_curve(3, 0.5, grid),
    }
    for stub, clamped in (([1.0, -1e-12, 0.5, 0.2], 1), ([1.0, 0.3, 0.5, 0.2], None)):
        monkeypatch.setattr(figures, "kernel_gue", lambda order, x, y: np.array(stub))
        monkeypatch.setattr(figures, "kernel_laguerre", lambda order, a, x, y: np.array(stub))
        for name, curve in curves.items():
            out = curve()
            assert out.meta.get("clamped") == clamped, name
            assert np.all(out.values >= 0.0), name
    monkeypatch.setattr(figures, "kernel_gue", lambda order, x, y: np.array([1.0, -1e-9, 0.5, 0.2]))
    monkeypatch.setattr(figures, "kernel_laguerre", lambda order, a, x, y: np.array([1.0, -1e-9, 0.5, 0.2]))
    for name, curve in curves.items():
        with pytest.raises(ArithmeticError, match="negative"):
            curve()


def test_sample_batch_chiral_counts_positive_only():
    edges = np.linspace(0.0, 12.0, 25)
    counts, largest = sample_batch(ShiftedChiral(8, 2.0, 1, 3.0), 2, 50, 5, edges)
    assert counts.sum() <= 50 * 8
    assert np.all(largest > 0)


def test_verify_report_shape():
    report = run_verify("spectra")
    assert report["passed"] and report["n_checks"] == 2
    assert all(check["seconds"] >= 0 for check in report["checks"])
    assert all(check["margin"] == check["measured"] / check["tolerance"]
               for check in report["checks"])
    with pytest.raises(ValueError):
        run_verify("nonsense")


def test_verify_detects_injected_sign_flip(monkeypatch):
    import spikesep.harness.verify as verify_mod

    original = verify_mod.incomplete_hermite

    def flipped(kind, j, x, n, r, c):
        value = original(kind, j, x, n, r, c)
        return -value if (kind == "tilde" and j == 1) else value

    monkeypatch.setattr(verify_mod, "incomplete_hermite", flipped)
    passed, *_ = verify_mod._check_hermite_contour()
    assert not passed


@pytest.mark.parametrize("check, recurrence, calls", [
    ("_check_hermite_orthonormality", "hermite_weighted_signlog", 1),
    ("_check_laguerre_orthonormality", "laguerre_weighted_signlog", 3),  # one per parameter a
])
def test_orthonormality_checks_run_the_grid_recurrences(monkeypatch, check, recurrence, calls):
    import spikesep.harness.verify as verify_mod

    original = getattr(verify_mod, recurrence)
    seen = []

    def counted(*args):
        seen.append(np.size(args[-1]))
        return original(*args)

    monkeypatch.setattr(verify_mod, recurrence, counted)
    passed, measured, tol, _ = getattr(verify_mod, check)()
    assert passed and measured < tol
    assert seen == [400] * calls  # every quadrature node in one call


def test_verify_margin_is_none_at_zero_tolerance(monkeypatch):
    import spikesep.harness.verify as verify_mod

    monkeypatch.setattr(verify_mod, "SUITES", {"stub": [("pass_fail", lambda: (True, 0.0, 0.0, ""))]})
    assert run_verify("stub")["checks"][0]["margin"] is None


def _scaled_location(original):
    def predictor(self, spike):
        pred = original(self, spike)
        return replace(pred, location=pred.location * (1.0 + 1e-9)) if pred.above_threshold else pred
    return predictor


def _moved_fixed_threshold(original):
    def predictor(self, spike):
        pred = original(self, spike)
        return replace(pred, threshold=2.001) if self.regime == "fixed" else pred
    return predictor


@pytest.mark.parametrize("model, mutate", [(ShiftedGUE, _scaled_location),
                                           (SpikedLUE, _moved_fixed_threshold)])
def test_predictor_vs_law_detects_a_moved_predictor(monkeypatch, model, mutate):
    import spikesep.harness.verify as verify_mod

    assert verify_mod._check_predictor_vs_law()[0]
    monkeypatch.setattr(model, "predictor", mutate(model.predictor))
    passed, *_ = verify_mod._check_predictor_vs_law()
    assert not passed


def test_stieltjes_oracle_keeps_the_hard_edge_offset():
    import spikesep.harness.verify as verify_mod

    passed, measured, *_ = verify_mod._check_stieltjes_vs_quadrature()
    assert passed and measured < 1e-12


def test_cli_density_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main([
        "density", "--model", "shifted-gue", "--n", "8", "--r", "2", "--c", "2.0",
        "--grid=-7:9:101", "--out", str(out),
    ])
    assert code == 0 and out.exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass_flags"]["grid_covers_support"]
    # config error: missing --m for spiked-lue
    code = main([
        "density", "--model", "spiked-lue", "--grid", "0:10:11", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("grid, reason", [
    ("0:inf:5", "grid bounds must be finite"),
    ("0:1", "grid must look like min:max:count"),
    ("1:0:5", "grid lower bound must be below upper bound"),
])
def test_cli_grid_errors_keep_their_reason(tmp_path, capsys, grid, reason):
    code = main(["density", "--model", "shifted-gue", "--n", "4", "--grid", grid,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert reason in capsys.readouterr().err


def test_cli_mc_and_scan(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code = main([
        "mc", "--model", "shifted-gue", "--n", "6", "--r", "1", "--c", "1.0",
        "--grid=-6:8:41", "--trials", "60", "--seed", "3", "--out", str(out),
    ])
    assert code == 0 and out.exists()
    capsys.readouterr()
    scan_out = tmp_path / "scan.json"
    code = main([
        "scan", "--model", "shifted-gue", "--n", "40", "--r", "1",
        "--grid", "7:17:201", "--spikes", "0,2.2", "--out", str(scan_out),
    ])
    assert code == 0
    payload = json.loads(scan_out.read_text())
    assert payload["2.2"]["pass_flags"]["peak_found"]


def test_cli_figure_smoke(tmp_path, capsys):
    code = main(["figure", "fig3", "fig7", "--outdir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fig3a.csv").exists()
    assert (tmp_path / "fig3b.svg").exists()
    assert (tmp_path / "fig7a.csv").exists()


def test_all_figure_presets_emit_csv_and_svg(tmp_path):
    # fig1 with a reduced trial count; the rest at their full settings
    results = _figure_digests_script().render(tmp_path)
    for name, res in results.items():
        suffixes = {p.suffix for p in res["files"]}
        assert ".csv" in suffixes and ".svg" in suffixes, name
        for p in res["files"]:
            assert p.exists() and p.stat().st_size > 0
    # every emitted file must match, byte for byte, the recorded output
    recorded = json.loads(FIGURE_DIGESTS.read_text())
    emitted = sorted(p.name for res in results.values() for p in res["files"])
    assert emitted == sorted(recorded["sha256"])
    versions = (f"recorded with numpy {recorded['numpy']}, scipy {recorded['scipy']}; "
                f"running numpy {np.__version__}, scipy {scipy.__version__}")
    for name in emitted:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == recorded["sha256"][name], f"{name} differs from its recorded digest ({versions})"


def test_figure_digests_script_curve_deltas(tmp_path):
    grid = np.linspace(0.0, 1.0, 4)
    old = [DensityCurve(grid, np.array([0.0, 2.0, 4.0, 1.0]), {"model": "a"}),
           DensityCurve(grid, np.array([1.0, 1.0, 1.0, 1.0]), {"model": "b"})]
    new = [DensityCurve(grid, np.array([0.0, 2.0, 4.0 - 1e-3, 1.0]), {"model": "a"}), old[1]]
    emit_csv(old, None, tmp_path / "old.csv")
    emit_csv(new, None, tmp_path / "new.csv")
    script = _figure_digests_script()
    names = list(script.read_curves(tmp_path / "old.csv"))
    assert len(names) == 2
    deltas = script.curve_deltas(tmp_path / "old.csv", tmp_path / "new.csv")
    assert deltas == {names[0]: pytest.approx(1e-3 / 4.0), names[1]: 0.0}
    assert script.curve_deltas(tmp_path / "old.csv", tmp_path / "old.csv") == dict.fromkeys(names, 0.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            GridSpec(lo, hi, 5)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="bogus", model=ShiftedGUE(4, 1, 1.0), grid=GridSpec(0, 1, 5))
