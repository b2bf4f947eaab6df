"""The whole-row two-pole assembly against the per-term reference, bit for bit."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from reference_logsum import reference_slog_sum_columns
from reference_twopole import reference_completing_family, reference_plain_family

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


# each seam straddled: 2c = 0.2 / 0.3, |btilde - 1| = 0.01 / 0.03, c^2 = 0.01 / 0.03;
# the first of each pair takes the merged-pole branch, the second the residues
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


def test_seam_models_take_both_branches():
    merged = [hermite._SMALL_SHIFT > 2.0 * 0.1, laguerre._SMALL_EPS > 0.01,
              chiral._SMALL_CSQ > 0.01]
    residue = [hermite._SMALL_SHIFT < 2.0 * 0.15, laguerre._SMALL_EPS < 0.03,
               chiral._SMALL_CSQ < 0.03]
    assert all(merged) and all(residue)


@pytest.mark.parametrize("case", _perfbench_models(), ids=lambda case: case[0])
def test_exact_n500_models_match_per_term_assembly(case, monkeypatch):
    _, model, points = case
    _assert_matches_reference(model, points[:: max(1, points.size // 40)], monkeypatch)


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
