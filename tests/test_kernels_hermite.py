import math

import mpmath
import numpy as np
import pytest

from raw_polynomials import hermite_raw
from spikesep.harness.experiments import exact_density_curve
from spikesep.kernels import hermite as hermite_module
from spikesep.kernels import (
    ShiftedGUE,
    correl_n,
    density_shifted_gue,
    incomplete_hermite,
    kernel_gue,
    kernel_shifted_gue,
    kernel_shifted_gue_asymptotic,
    spike_term_shifted_gue,
)
from spikesep.kernels.contour import (
    contour_incomplete_hermite_plain,
    contour_incomplete_hermite_tilde,
)


def _gl(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def test_kernel_gue_at_origin():
    assert kernel_gue(1, 0.0, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert kernel_gue(1, 0.0, 0.0) == pytest.approx(0.564190, abs=1e-6)


def test_kernel_gue_trace():
    n = 6
    half = math.sqrt(2.0 * n) + 6.0
    xs, ws = _gl(-half, half, 400)
    tr = float(np.sum(ws * np.array([kernel_gue(n, x, x) for x in xs])))
    assert abs(tr - n) < 1e-8


def test_kernel_gue_reproducing():
    n, x, y = 6, 0.3, -1.1
    ts, ws = _gl(-10.0, 10.0, 400)
    lhs = float(np.sum(ws * np.array([kernel_gue(n, x, t) * kernel_gue(n, t, y) for t in ts])))
    assert abs(lhs - kernel_gue(n, x, y)) < 1e-8


def test_incomplete_hermite_tilde_matches_printed_residue_form():
    # j = 1, r = 1: (-1)^{N-1} [e^{2cx-c^2}/(2c)^{N-1}
    #               - sum_p H_{N-2-p}(x) / ((2c)^{p+1} 2^{N-2-p} (N-2-p)!)]
    n, r, c, x = 6, 1, 2.0, 0.7
    got = incomplete_hermite("tilde", 1, x, n, r, c).to_float()
    acc = math.exp(2 * c * x - c * c) / (2 * c) ** (n - 1)
    for p in range(n - 1):
        deg = n - 2 - p
        acc -= float(hermite_raw(deg, x)) / ((2 * c) ** (p + 1) * 2**deg * math.factorial(deg))
    expect = (-1) ** (n - 1) * acc
    assert got == pytest.approx(expect, rel=1e-12)


def test_incomplete_hermite_plain_closed_form():
    # |Gamma_1(y)| = e^{-y^2} |H_{N-r}(y)| / sqrt(pi); oracle fixes the sign
    n, r, c, y = 7, 2, 1.5, 0.9
    got = incomplete_hermite("plain", 1, y, n, r, c).to_float()
    expect = (-1) ** (n - r) * math.exp(-y * y) * float(hermite_raw(n - r, y)) / math.sqrt(math.pi)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(contour_incomplete_hermite_plain(1, y, n, r, c), rel=1e-9)


@pytest.mark.parametrize("params", [(6, 1, 2.0), (8, 3, 2.0), (8, 2, 1.0), (6, 2, 0.35)])
def test_incomplete_hermite_vs_contour_oracle(params):
    n, r, c = params
    for j in range(1, r + 1):
        for x in (0.7, -1.3, 2.5):
            ct = incomplete_hermite("tilde", j, x, n, r, c).to_float()
            ot = contour_incomplete_hermite_tilde(j, x, n, r, c)
            assert ct == pytest.approx(ot, rel=1e-8)
            cp = incomplete_hermite("plain", j, x, n, r, c).to_float()
            op = contour_incomplete_hermite_plain(j, x, n, r, c)
            assert cp == pytest.approx(op, rel=1e-8)


def test_incomplete_hermite_index_errors():
    with pytest.raises(ValueError):
        incomplete_hermite("tilde", 3, 0.0, 6, 2, 1.0)
    with pytest.raises(ValueError):
        incomplete_hermite("weird", 1, 0.0, 6, 2, 1.0)


def test_small_shift_limit_completes_gue():
    model = ShiftedGUE(8, 2, 1e-8)
    for x in (0.5, -1.7, 3.0):
        assert density_shifted_gue(model, x) == pytest.approx(kernel_gue(8, x, x), rel=1e-6)


def test_branch_crossover_continuity():
    # Taylor vs general-residue branches agree near the 2c = 0.25 switch
    n, r = 7, 2
    for j in (1, 2):
        for x in (0.4, 1.9):
            lo = incomplete_hermite("tilde", j, x, n, r, 0.1240).to_float()
            hi = incomplete_hermite("tilde", j, x, n, r, 0.1260).to_float()
            assert lo == pytest.approx(hi, rel=2e-2)


def test_density_trace_fig1():
    from scipy.integrate import simpson

    model = ShiftedGUE(15, 5, 15.0)
    xs = np.linspace(-8.0, 23.0, 40001)
    tr = simpson(density_shifted_gue(model, xs), x=xs)
    assert abs(tr - 15.0) < 1e-6


def test_density_nonnegative_on_grid():
    model = ShiftedGUE(15, 5, 15.0)
    vals = density_shifted_gue(model, np.linspace(-8.0, 23.0, 2001))
    assert np.all(vals >= -1e-10)


def test_kernel_projection_shifted():
    model = ShiftedGUE(6, 2, 2.0)
    xs, ws = _gl(-8.0, 9.0, 700)
    for (x, y) in [(0.3, -1.1), (1.8, 2.4)]:
        kxt = np.array([kernel_shifted_gue(model, x, t) for t in xs])
        kty = np.array([kernel_shifted_gue(model, t, y) for t in xs])
        lhs = float(np.sum(ws * kxt * kty))
        assert abs(lhs - kernel_shifted_gue(model, x, y)) < 1e-6


def test_biorthogonality_incomplete_hermite():
    n, r, c = 7, 2, 1.5
    xs, ws = _gl(-9.0, 9.0, 800)
    for j in (1, 2):
        for k in (1, 2):
            ft = np.array([incomplete_hermite("tilde", j, x, n, r, c).to_float() for x in xs])
            fp = np.array([incomplete_hermite("plain", k, x, n, r, c).to_float() for x in xs])
            val = float(np.sum(ws * ft * fp))
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-6


def test_asymptotic_rank_one_form():
    # r = 1 reduces to e^{2c(x-y)} e^{-((x-c)^2+(y-c)^2)/2}/sqrt(pi)
    c, x, y = 9.0, 9.4, 8.7
    got = kernel_shifted_gue_asymptotic(1, c, x, y)
    expect = math.exp(2 * c * (x - y)) * math.exp(-((x - c) ** 2 + (y - c) ** 2) / 2) / math.sqrt(math.pi)
    assert got == pytest.approx(expect, rel=1e-13)


def test_asymptotic_convergence_series():
    # frozen deviation sequence at (N, r) = (12, 2): strictly decreasing in c,
    # ~0.108 at c = 15 (the lobe-center Hermite-ratio correction)
    devs = []
    for c in (10.0, 15.0, 20.0, 30.0):
        ex = spike_term_shifted_gue(ShiftedGUE(12, 2, c), c, c)
        asym = kernel_shifted_gue_asymptotic(2, c, c, c)
        devs.append(abs(ex - asym) / abs(asym))
    assert devs[1] == pytest.approx(0.10793, abs=2e-4)
    assert devs[0] > devs[1] > devs[2] > devs[3]
    # small co-rank meets the 2e-2 gate at c = 15
    ex = spike_term_shifted_gue(ShiftedGUE(4, 2, 15.0), 15.0, 15.0)
    asym = kernel_shifted_gue_asymptotic(2, 15.0, 15.0, 15.0)
    assert abs(ex - asym) / abs(asym) < 2e-2


def test_correl_n_permutation_invariance():
    model = ShiftedGUE(6, 2, 2.0)
    pts = np.array([0.3, -1.1, 1.7])
    base = correl_n(model, pts)
    import itertools

    for perm in itertools.permutations(range(3)):
        assert correl_n(model, pts[list(perm)]) == pytest.approx(base, rel=1e-12)


def test_right_lobe_is_displaced_gue():
    # the separated lobe equals the r x r GUE centered at c + (N-r)/(2c):
    # this pins the finite-shift physics behind the figure comparisons
    model = ShiftedGUE(15, 5, 15.0)
    g = np.linspace(8.0, 22.0, 1401)
    full = density_shifted_gue(model, g)
    a = full / np.trapezoid(full, g)
    mean = float(np.trapezoid(g * a, g))
    assert mean == pytest.approx(15.0 + 10.0 / 30.0, abs=1e-6)
    shift = 15.0 + 10.0 / 30.0
    lobe = np.array([kernel_gue(5, x - shift, x - shift) for x in g])
    b = lobe / np.trapezoid(lobe, g)
    assert float(np.trapezoid(np.abs(a - b), g)) < 0.02


def test_merged_pole_budget_does_not_depend_on_rank():
    # r = 130 exceeds the 120 extra recurrence rows of the merged-pole branch
    xs = np.linspace(-26.0, 26.0, 2601)
    vals = density_shifted_gue(ShiftedGUE(200, 130, 0.05), xs)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert abs(np.trapezoid(vals, xs) - 200.0) < 1e-9


def test_merged_pole_series_is_not_cut_short_at_a_single_point():
    # at r = 116 only four terms used to fit the budget, and at x = 0 every odd
    # Hermite term vanishes; the converged density is 6.36300
    model = ShiftedGUE(200, 116, 0.05)
    grid = density_shifted_gue(model, np.linspace(-26.0, 26.0, 2601))
    assert density_shifted_gue(model, 0.0) == pytest.approx(grid[1300], rel=1e-12)
    assert density_shifted_gue(model, 0.0) == pytest.approx(6.36300, abs=1e-5)


@pytest.mark.parametrize("x", [-400.0, -250.0, -150.0, -100.0, 100.0, 150.0, 250.0, 400.0])
def test_rank_one_family_matches_its_closed_form(x):
    # n = 3, r = 1: Gtilde_1(x) = -x/(2c) - 1/(4c^2) + e^{2cx - c^2}/(4c^2).  At
    # 2c = 0.24 the residue pair cancels little here, and far out the
    # merged-pole terms (0.24 x)^t / t! peak near t = 96
    c = 0.12
    mpmath.mp.dps = 50
    cm, xm = mpmath.mpf(c), mpmath.mpf(x)
    want = -xm / (2 * cm) - 1 / (4 * cm**2) + mpmath.exp(2 * cm * xm - cm**2) / (4 * cm**2)
    got = incomplete_hermite("tilde", 1, x, 3, 1, c)
    assert got.sign == (1 if want > 0 else -1)
    assert abs(math.expm1(got.log_magnitude - float(mpmath.log(abs(want))))) < 1e-11


@pytest.mark.parametrize("evaluate", [
    lambda x: density_shifted_gue(ShiftedGUE(5, 0, 0.0), x),  # read a NaN point as 0
    lambda x: density_shifted_gue(ShiftedGUE(5, 2, 1.0), x),
    lambda x: kernel_gue(5, x, 0.5),
    lambda x: [incomplete_hermite("tilde", 1, v, 5, 2, 1.0) for v in np.atleast_1d(x)],
], ids=["rank-0", "rank-2", "kernel", "family"])
@pytest.mark.parametrize("x", [[math.nan, 1.0], [math.inf, 1.0], -math.inf])
def test_non_finite_points_raise(evaluate, x):
    with pytest.raises(ValueError, match="finite x"):
        evaluate(x)


def test_kernel_overflow_raises():
    with pytest.raises(OverflowError):
        kernel_shifted_gue(ShiftedGUE(15, 5, 60.0), 70.0, -5.0)


@pytest.mark.parametrize("model", [ShiftedGUE(6, 2, 2.0), ShiftedGUE(8, 3, 0.05)])
def test_kernel_and_spike_term_are_pointwise_over_arrays(model):
    # residue branch and merged-pole branch (2c < 0.25)
    x = np.linspace(-3.0, 5.0, 41)
    y = x[::-1] + 0.3
    for fn in (kernel_shifted_gue, spike_term_shifted_gue):
        got = fn(model, x, y)
        assert got.shape == (41,)
        assert np.array_equal(got, [fn(model, a, b) for a, b in zip(x, y)])
    got = density_shifted_gue(model, x.reshape(1, 41))
    assert got.shape == (1, 41)
    assert np.array_equal(got[0], [density_shifted_gue(model, a) for a in x])


def test_kernel_matrix_is_a_broadcast_call():
    model = ShiftedGUE(6, 2, 2.0)
    pts = np.array([0.3, -1.1, 1.7])
    k = kernel_shifted_gue(model, pts[:, None], pts[None, :])
    assert k.shape == (3, 3)
    assert k[1, 2] == kernel_shifted_gue(model, -1.1, 1.7)
    assert float(np.linalg.det(k)) == correl_n(model, pts)


@pytest.mark.parametrize("model", [ShiftedGUE(6, 2, 2.0), ShiftedGUE(8, 3, 0.05)])
def test_families_rows_match_incomplete_hermite(model):
    x = np.linspace(-3.0, 5.0, 41)
    ts, tl, ps, pl = model.families(x)
    for j in range(1, model.r + 1):
        for kind, sign, log in (("tilde", ts, tl), ("plain", ps, pl)):
            vals = [incomplete_hermite(kind, j, xi, model.n, model.r, model.c) for xi in x]
            assert np.array_equal(sign[j - 1], [v.sign for v in vals])
            assert np.array_equal(log[j - 1], [v.log_magnitude for v in vals])


@pytest.mark.parametrize("model", [ShiftedGUE(12, 3, 2.0), ShiftedGUE(12, 3, 0.05)])
def test_density_and_kernel_run_one_recurrence(monkeypatch, model):
    # residue branch and merged-pole branch: the bulk reads the families' stack
    calls = []
    recurrence = hermite_module.hermite_weighted_signlog

    def counted(n, x):
        calls.append(np.size(x))
        return recurrence(n, x)

    monkeypatch.setattr(hermite_module, "hermite_weighted_signlog", counted)
    x = np.linspace(-5.0, 6.0, 23)
    density_shifted_gue(model, x)
    assert calls == [23]
    calls.clear()
    kernel_shifted_gue(model, x, x[::-1])
    assert calls == [46]


def test_rank_200_shift_evaluates_to_its_plain_family_noise():
    # the residue at -2c ran H_k(x - c) natively, which overflowed to NaN near
    # k = 200, and the log-sum raised on it; the rows are rescaled now, and
    # the curve meets the plain family's noise at this rank (ROADMAP item 2),
    # which its negativity check reports
    with pytest.raises(ArithmeticError, match="went negative"):
        exact_density_curve(ShiftedGUE(500, 200, 40.0), np.linspace(-60.0, 60.0, 5))
