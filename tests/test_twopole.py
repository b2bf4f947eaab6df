"""The whole-row two-pole assembly against the per-term reference, bit for bit."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from bounded import run_bounded
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_logsum import reference_slog_sum_columns
from reference_twopole import (
    reference_completing_family,
    reference_plain_family,
    reference_residue_at_zero,
)

from spikesep.kernels import (
    ShiftedChiral,
    ShiftedGUE,
    SpikedLUE,
    chiral,
    chiral_pq,
    common,
    density_shifted_chiral,
    density_spiked_lue,
    hermite,
    incomplete_hermite,
    incomplete_laguerre,
    kernel_laguerre,
    kernel_shifted_chiral,
    kernel_shifted_gue,
    kernel_spiked_lue,
    laguerre,
    twopole,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_models():
    """(id, model, grid points) of the exact-n500 workload's scan and merged-curve models,
    read from perfbench/workloads.py: each scan model at its first spike."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    cases = [(f"scan {fam} spike={spikes[0]:g}", base.respike(spikes[0]), grid.points())
             for fam, base, grid, spikes in workloads.EXACT_SCANS]
    cases += [(f"curve {tag}", model, grid.points()) for tag, model, grid in workloads.EXACT_MERGED]
    return cases


def _assembled(model, x):
    """Both families and the density of `model` on x, as one list of arrays."""
    return [*model.families(x), model.density(x)]


def _assert_matches_reference(model, x, monkeypatch):
    got = _assembled(model, x)
    with monkeypatch.context() as patch:
        for module in (hermite, laguerre, chiral):
            patch.setattr(module, "plain_family", reference_plain_family)
            patch.setattr(module, "completing_family", reference_completing_family)
        patch.setattr(twopole, "slog_sum_columns", reference_slog_sum_columns)
        patch.setattr(common, "slog_sum_columns", reference_slog_sum_columns)
        want = _assembled(model, x)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# the old fixed seams straddled: 2c = 0.2 / 0.3, |btilde - 1| = 0.01 / 0.03,
# c^2 = 0.01 / 0.03; each model's points now pick their branch by depth
SEAM_MODELS = [
    ShiftedGUE(12, 3, 0.1),
    ShiftedGUE(12, 3, 0.15),
    SpikedLUE(10, 2.0, 2, 0.99),
    SpikedLUE(10, 2.0, 2, 1.01),
    SpikedLUE(10, 2.0, 2, 0.97),
    SpikedLUE(10, 2.0, 2, 1.03),
    ShiftedChiral(10, 1.0, 3, 0.1),
    ShiftedChiral(10, 1.0, 3, math.sqrt(0.03)),
]
# well inside the residue branch, including a full-rank model (no residue at 0)
RESIDUE_MODELS = [
    ShiftedGUE(15, 5, 15.0),
    ShiftedGUE(4, 4, 2.0),
    SpikedLUE(12, 1.0, 3, 0.3),
    ShiftedChiral(15, 4.0, 5, 15.0),
]


def _grid(model, count):
    if isinstance(model, ShiftedGUE):
        return np.linspace(-1.3 * model.bulk_edge, model.bulk_edge + model.c + 4.0, count)
    if isinstance(model, SpikedLUE):
        return np.linspace(0.05, 5.0 * (model.m + model.alpha) / min(model.btilde, 1.0), count)
    return np.linspace(0.05, 1.3 * model.bulk_edge + model.c, count)


@pytest.mark.parametrize("count", [3, 41])  # both sides of the narrow-stack cut-off
@pytest.mark.parametrize("model", SEAM_MODELS + RESIDUE_MODELS, ids=lambda m: m.tag)
def test_families_match_per_term_assembly(model, count, monkeypatch):
    assert model.r >= 1
    _assert_matches_reference(model, _grid(model, count), monkeypatch)


def _branch_columns(model, x, monkeypatch):
    """Per family row: the columns whose residue pair cancels deeper than
    _DEEP_NATS (read from the residue terms, one at a time), and the columns
    that took the merged-pole series."""
    rows = []
    series = twopole.merged_pole_series

    def completing(line, grow, q0, r, eps, residue_at_eps):
        for j in range(1, r + 1):
            sgs, lgs = residue_at_eps(j)
            zs, zl = reference_residue_at_zero(line, q0, j, eps)
            sgs, lgs = np.array([*sgs, *zs]), np.array([*lgs, *zl])
            top = np.max(np.where(sgs != 0, lgs, -np.inf), axis=0)
            with np.errstate(divide="ignore"):  # a sum of exactly 0 is infinitely deep
                depth = -np.log(np.abs(np.sum(sgs * np.exp(lgs - top), axis=0)))
            rows.append([set(np.flatnonzero(depth > twopole._DEEP_NATS).tolist()), set()])
        return twopole.completing_family(line, grow, q0, r, eps, residue_at_eps)

    def recorded(line, grow, q0, j, eps, cols, ceiling):
        out = series(line, grow, q0, j, eps, cols, ceiling)
        rows[len(rows) - model.r + j - 1][1] = set(cols[out[2] > 0].tolist())
        return out

    with monkeypatch.context() as patch:
        for module in (hermite, laguerre, chiral):
            patch.setattr(module, "completing_family", completing)
        patch.setattr(twopole, "merged_pole_series", recorded)
        model.families(x)
    return rows


def test_each_point_takes_the_branch_its_depth_picks(monkeypatch):
    counts = {}
    cases = [(m.tag, m, _grid(m, 41)) for m in SEAM_MODELS + RESIDUE_MODELS]
    cases += [(tag, m, x[:: max(1, x.size // 100)]) for tag, m, x in _perfbench_models()
              if tag.startswith("curve")]
    for tag, model, x in cases:
        rows = _branch_columns(model, x, monkeypatch)
        assert len(rows) == model.r
        for deep, series in rows:
            # the series runs on the deep columns only, and is kept on all of
            # them here (its largest term is below the residue's)
            assert series == deep
        counts[tag] = [(len(series), x.size - len(series)) for _, series in rows]
    for model in SEAM_MODELS:
        assert all(on_series > 0 for on_series, _ in counts[model.tag])
    # on both sides of the old 2c = 0.25 and |btilde - 1| = 0.02 seams the
    # first row splits its points between the branches
    for model in SEAM_MODELS[:2] + SEAM_MODELS[4:6]:
        assert all(side > 0 for side in counts[model.tag][0])
    for model in RESIDUE_MODELS:
        assert all(on_series == 0 for on_series, _ in counts[model.tag])
    for tag in ("curve gue c=0.1", "curve lue btilde=0.99", "curve chiral c=0.1"):
        assert all(on_residue == 0 for _, on_residue in counts[tag])


@pytest.mark.parametrize("case", _perfbench_models(), ids=lambda case: case[0])
def test_exact_n500_models_match_per_term_assembly(case, monkeypatch):
    _, model, points = case
    _assert_matches_reference(model, points[:: max(1, points.size // 40)], monkeypatch)


@pytest.mark.parametrize("case", [case for case in _perfbench_models() if case[0].startswith("curve")],
                         ids=lambda case: case[0])
def test_merged_curve_points_alone_match_the_whole_grid(case):
    # the series grows its line on these curves; each point's column sums
    # its own terms up to its own stop, whatever else shares the call
    _, model, points = case
    whole = _assembled(model, points)
    for at in range(0, points.size, 25):
        for alone, full in zip(_assembled(model, points[at : at + 1]), whole):
            assert np.array_equal(alone, full[..., at : at + 1]), at
    # and in calls of ten points: with one stop for every column of a call, a
    # chiral-curve point that stops a step before the grid's last gets other bits
    chunks = [_assembled(model, points[at : at + 10]) for at in range(0, points.size, 10)]
    for parts, full in zip(zip(*chunks), whole):
        assert np.array_equal(np.concatenate(parts, axis=-1), full)


FAMILY_VALUES = [
    lambda kind, j: incomplete_hermite(kind, j, 0.4, 8, 2, 1.5),
    lambda kind, j: incomplete_laguerre(kind, j, 0.4, 8, 1.0, 2, 0.5),
    lambda kind, j: chiral_pq({"tilde": "p", "plain": "q"}[kind], j, 0.4, 8, 1.0, 2, 1.5),
]


@pytest.mark.parametrize("kind", ["tilde", "plain"])
@pytest.mark.parametrize("j", [0, 3])  # j = 0 and j = r + 1 at r = 2
@pytest.mark.parametrize("value", FAMILY_VALUES, ids=["hermite", "laguerre", "chiral"])
def test_family_index_out_of_range_raises(value, j, kind):
    with pytest.raises(ValueError, match="family index"):
        value(kind, j)
    value(kind, 1)  # in range


HALF_LINE_DENSITIES = [
    lambda x: density_spiked_lue(SpikedLUE(5, 1.0, 1, 0.5), x),
    lambda x: density_shifted_chiral(ShiftedChiral(5, 1.0, 1, 1.0), x),
]


@pytest.mark.parametrize("x", [math.nan, [1.0, math.nan], [-1.0, 1.0]],
                         ids=["nan", "array-nan", "negative"])
@pytest.mark.parametrize("density", HALF_LINE_DENSITIES, ids=["lue", "chiral"])
def test_half_line_densities_reject_nan_and_negative_points(density, x):
    with pytest.raises(ValueError, match="x >= 0"):
        density(x)


NON_FINITE_POINT_CALLS = {
    "gue density": lambda r, v: ShiftedGUE(5, r, 1.0).density(np.array([v])),
    "gue kernel": lambda r, v: kernel_shifted_gue(ShiftedGUE(5, r, 1.0), v, 0.5),
    "lue density": lambda r, v: SpikedLUE(5, 1.0, r, 1.0).density(np.array([v])),
    "lue kernel": lambda r, v: kernel_spiked_lue(SpikedLUE(5, 1.0, r, 0.5), v, 1.0),
    "laguerre kernel": lambda r, v: kernel_laguerre(5, 1.0 + r, 1.0, v),
    "chiral density": lambda r, v: ShiftedChiral(5, 1.0, r, float(r)).density(np.array([v])),
    "chiral kernel": lambda r, v: kernel_shifted_chiral(ShiftedChiral(5, 1.0, r, 1.0), 1.0, v),
}


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("call", list(NON_FINITE_POINT_CALLS))
def test_models_reject_non_finite_points(call, r, value):
    # NaN stops at each function's own domain check, whose message differs
    with pytest.raises(ValueError, match="finite" if value == math.inf else None):
        NON_FINITE_POINT_CALLS[call](r, value)


# (model at shift s, the old seam's s, points): 2c = 0.25, |btilde - 1| = 0.02
# on both sides of 1, c^2 = 0.02.  At N = 40 the residue pair just past each
# seam cancelled to noise (up to 1e41 times the density's maximum).
SEAMS = [
    (lambda s: ShiftedGUE(40, 2, s / 2.0), 0.25, np.linspace(-9.0, 9.0, 13)),
    (lambda s: SpikedLUE(40, 1.0, 2, 1.0 - s), 0.02, np.linspace(0.5, 170.0, 13)),
    (lambda s: SpikedLUE(40, 1.0, 2, 1.0 + s), 0.02, np.linspace(0.5, 170.0, 13)),
    (lambda s: ShiftedChiral(40, 1.0, 2, math.sqrt(s)), 0.02, np.linspace(0.2, 13.5, 13)),
]


@given(seam=st.sampled_from(range(len(SEAMS))), below=st.floats(1e-9, 1e-3),
       above=st.floats(1e-9, 1e-3))
@settings(max_examples=30, deadline=None)
def test_density_is_continuous_in_the_shift_across_the_old_seams(seam, below, above):
    make, at, x = SEAMS[seam]
    lo, hi = make(at - below).density(x), make(at + above).density(x)
    scale = np.max(np.abs(lo))
    # |d density / d s| reads at most 0.042 of the maximum here
    assert np.max(np.abs(hi - lo)) <= (below + above) * scale + 1e-10 * scale


@pytest.mark.parametrize("make", [
    lambda v: ShiftedGUE(5, 1, v),
    lambda v: SpikedLUE(5, v, 1, 0.5),
    lambda v: SpikedLUE(5, 1.0, 1, v),
    lambda v: ShiftedChiral(5, v, 1, 1.0),
    lambda v: ShiftedChiral(5, 1.0, 1, v),
], ids=["gue c", "lue alpha", "lue btilde", "chiral alpha", "chiral c"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_models_reject_non_finite_parameters(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_non_finite_0f1_arguments_raise():
    # 0F1's series never stopped on these; run apart, time- and memory-bound
    code = """if True:
        import math
        from spikesep.kernels import ShiftedChiral, density_shifted_chiral
        from spikesep.specialfn import log_0f1
        calls = [lambda: log_0f1(math.nan, 1.0), lambda: log_0f1(3.0, math.nan),
                 lambda: log_0f1(3.0, math.inf),
                 lambda: density_shifted_chiral(ShiftedChiral(5, 1.0, 1, 1.0), [math.inf])]
        for call in calls:
            try:
                call()
            except ValueError as err:
                assert "finite" in str(err), err
            else:
                raise AssertionError("no ValueError")
        print("ok")
    """
    done = run_bounded(code)
    assert done.stdout.strip() == "ok", done.stderr


def test_huge_0f1_arguments_finish():
    # scipy's ive is NaN from 2 sqrt(z) = 2^30, which read as underflow and
    # sent 0F1 to a series of about z terms; run apart, time- and memory-bound
    code = """if True:
        import math
        from spikesep.kernels import ShiftedChiral, chiral_pq, kernel_shifted_chiral
        values = [ShiftedChiral(5, 1.0, 1, 1.0).density(1e9),
                  ShiftedChiral(5, 1.0, 1, 1e5).density(1e4),
                  chiral_pq("q", 1, 1e18, 5, 1.0, 1, 1.0).log_magnitude,
                  kernel_shifted_chiral(ShiftedChiral(5, 1.0, 1, 1.0), 1e9, 1.0)]
        print(all(math.isfinite(v) for v in values))
    """
    done = run_bounded(code)
    assert done.stdout.strip() == "True", done.stderr
