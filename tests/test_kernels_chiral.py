import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from spikesep.kernels import chiral as chiral_module
from spikesep.kernels import laguerre as laguerre_module
from spikesep.kernels import (
    ShiftedChiral,
    chiral_asymptotic_pq,
    chiral_pq,
    chiral_spike_term,
    density_shifted_chiral,
    kernel_gue,
    kernel_laguerre,
    kernel_shifted_chiral,
)
from spikesep.kernels.contour import contour_chiral_q


def _gl(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def test_p1_closed_form():
    m, a, r, c = 6, 2.0, 2, 1.5
    x = 2.3
    got = chiral_pq("p", 1, x, m, a, r, c).to_float()
    expect = math.gamma(m - r + 1) * float(eval_genlaguerre(m - r, a, x))
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("params", [(6, 2.0, 2, 1.5), (5, 0.5, 1, 1.0), (7, 1.0, 3, 2.0)])
def test_q_vs_contour_oracle(params):
    m, a, r, c = params
    for k in range(1, r + 1):
        for x in (0.5, 2.0, 5.0):
            cq = chiral_pq("q", k, x, m, a, r, c).to_float()
            oq = contour_chiral_q(k, x, m, a, r, c)
            assert cq == pytest.approx(oq, rel=1e-8)


def test_biorthogonality_pq():
    m, a, r, c = 6, 2.0, 2, 1.5
    us, ws = _gl(1e-8, 9.0, 900)
    ts = us * us
    jac = 2.0 * us * ws
    for j in (1, 2):
        pj = np.array([chiral_pq("p", j, t, m, a, r, c).to_float() for t in ts])
        for k in (1, 2):
            qk = np.array([chiral_pq("q", k, t, m, a, r, c).to_float() for t in ts])
            val = float(np.sum(jac * pj * qk))
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-6


def test_small_shift_limit():
    model = ShiftedChiral(6, 2.0, 2, 1e-9)
    for lam in (0.5, 1.5, 3.0):
        expect = 2 * lam * kernel_laguerre(6, 2.0, lam * lam, lam * lam)
        assert density_shifted_chiral(model, lam) == pytest.approx(expect, rel=1e-10)


def test_density_trace_fig5():
    from scipy.integrate import simpson

    model = ShiftedChiral(15, 4.0, 5, 15.0)
    xs = np.linspace(1e-6, 22.0, 30001)
    tr = simpson(density_shifted_chiral(model, xs), x=xs)
    assert abs(tr - 15.0) < 1e-6


def test_kernel_projection_chiral():
    model = ShiftedChiral(5, 1.0, 2, 2.0)
    us, ws = _gl(1e-8, 9.0, 700)
    for (x, y) in [(0.8, 2.2), (1.5, 3.0)]:
        kxt = np.array([kernel_shifted_chiral(model, x, t) for t in us])
        kty = np.array([kernel_shifted_chiral(model, t, y) for t in us])
        lhs = float(np.sum(2.0 * us * ws * kxt * kty))
        assert abs(lhs - kernel_shifted_chiral(model, x, y)) < 1e-6


def test_asymptotic_rank_one_is_gaussian():
    c = 12.0
    x = (c + 0.4) ** 2
    y = (c - 0.3) ** 2
    got = chiral_asymptotic_pq(1, c, x, y)
    u, v = math.sqrt(x) - c, math.sqrt(y) - c
    expect = (math.exp(0.5 * (u * u - v * v)) * math.exp(-(u * u + v * v) / 2)
              / (math.sqrt(math.pi) * 2 * c))
    assert got == pytest.approx(expect, rel=1e-13)


def test_asymptotic_convergence():
    devs = []
    for c in (10.0, 15.0, 20.0, 30.0):
        ex = chiral_spike_term(ShiftedChiral(4, 0.0, 3, c), c * c, c * c)
        asym = chiral_asymptotic_pq(3, c, c * c, c * c)
        devs.append(abs(ex - asym) / abs(asym))
    assert devs[0] > devs[1] > devs[2] > devs[3]
    assert devs[1] < 2e-2


def test_right_lobe_against_displaced_gue():
    # lobe center sits above c by the bulk-repulsion shift; against the GUE at
    # the measured center the match is tight
    model = ShiftedChiral(15, 4.0, 5, 15.0)
    g = np.linspace(10.0, 21.0, 1101)
    full = density_shifted_chiral(model, g)
    a = full / np.trapezoid(full, g)
    mean = float(np.trapezoid(g * a, g))
    assert mean > 15.0
    lobe = np.array([kernel_gue(5, x - mean, x - mean) for x in g])
    b = lobe / np.trapezoid(lobe, g)
    # recentering removes most of the deviation (0.36 at center c); the rest
    # is a second-order width compression from the mirrored bulk
    assert float(np.trapezoid(np.abs(a - b), g)) < 0.05


def test_argument_validation():
    with pytest.raises(ValueError):
        kernel_shifted_chiral(ShiftedChiral(5, 1.0, 1, 1.0), -1.0, 1.0)
    with pytest.raises(ValueError):
        chiral_pq("r", 1, 1.0, 5, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        chiral_asymptotic_pq(1, 0.0, 1.0, 1.0)


def test_merged_pole_rank_beyond_term_budget():
    # r = 170 exceeds the 160 extra Laguerre rows of the merged-pole branch
    vals = density_shifted_chiral(ShiftedChiral(200, 1.0, 170, 0.1), np.array([1.0, 5.0, 15.0]))
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)


@pytest.mark.parametrize("model", [ShiftedChiral(5, 1.0, 2, 2.0), ShiftedChiral(5, 1.0, 2, 0.1)])
def test_kernel_and_spike_term_are_pointwise_over_arrays(model):
    # residue branch and merged-pole branch (c^2 < 0.02)
    x = np.linspace(0.2, 4.5, 41)
    y = 0.9 * x[::-1] + 0.1
    for fn in (kernel_shifted_chiral, chiral_spike_term):
        got = fn(model, x, y)
        assert got.shape == (41,)
        assert np.array_equal(got, [fn(model, a, b) for a, b in zip(x, y)])


def test_kernel_matrix_is_a_broadcast_call():
    model = ShiftedChiral(5, 1.0, 2, 2.0)
    pts = np.array([0.6, 1.8, 3.1])
    k = kernel_shifted_chiral(model, pts[:, None], pts[None, :])
    assert k.shape == (3, 3)
    assert np.array_equal(k, [[kernel_shifted_chiral(model, a, b) for b in pts] for a in pts])


@pytest.mark.parametrize("model", [ShiftedChiral(5, 1.0, 2, 2.0), ShiftedChiral(5, 1.0, 2, 0.1)])
def test_families_rows_match_chiral_pq(model):
    x = np.linspace(0.2, 12.0, 41)
    ps, pl, qs, ql = model.families(x)
    for k in range(1, model.r + 1):
        for kind, sign, log in (("p", ps, pl), ("q", qs, ql)):
            vals = [chiral_pq(kind, k, xi, model.m, model.alpha, model.r, model.c) for xi in x]
            assert np.array_equal(sign[k - 1], [v.sign for v in vals])
            assert np.array_equal(log[k - 1], [v.log_magnitude for v in vals])


@pytest.mark.parametrize("model", [ShiftedChiral(12, 2.0, 3, 2.0), ShiftedChiral(12, 2.0, 3, 0.1)])
def test_density_and_kernel_run_one_recurrence(monkeypatch, model):
    # residue branch and merged-pole branch: the bulk reads the families' stack
    calls = []
    recurrence = chiral_module.laguerre_weighted_signlog

    def counted(n, a, x):
        calls.append(np.size(x))
        return recurrence(n, a, x)

    for module in (chiral_module, laguerre_module):
        monkeypatch.setattr(module, "laguerre_weighted_signlog", counted)
    x = np.linspace(0.2, 9.0, 23)
    density_shifted_chiral(model, x)
    assert calls == [23]
    calls.clear()
    kernel_shifted_chiral(model, x, x[::-1])
    assert calls == [46]


def _mp_q1(u, m, alpha, c, dps=400):
    """q_1(u) of a rank-one shifted chiral model as its residue pair at dps digits:
    u^a e^{-u} [e^{-c^2} 0F1(a+1; u c^2) / (Gamma(a+1) (-c^2)^q0)
                - sum_{q<q0} L_q^a(u) / (Gamma(q+a+1) (-c^2)^{q0-q})], q0 = m - 1."""
    with mpmath.workdps(dps):
        u, csq, a = mpmath.mpf(u), mpmath.mpf(c) ** 2, mpmath.mpf(alpha)
        q0 = m - 1
        lag = [mpmath.mpf(1), a + 1 - u]
        for q in range(1, q0 - 1):
            lag.append(((2 * q + a + 1 - u) * lag[q] - (q + a) * lag[q - 1]) / (q + 1))
        residue_at_eps = mpmath.exp(-csq) * mpmath.hyp0f1(a + 1, u * csq) / mpmath.gamma(a + 1)
        residue_at_0 = mpmath.fsum(lag[q] / mpmath.gamma(q + a + 1) * (-csq) ** q for q in range(q0))
        return u**a * mpmath.exp(-u) * (residue_at_eps - residue_at_0) / (-csq) ** q0


@pytest.mark.parametrize("spike", [0.5, 0.6, 0.7])
def test_below_threshold_density_is_finite_and_nonnegative(spike):
    # the residue pair cancelled to noise here (down to -1.07e126 at 0.5 units)
    model = ShiftedChiral(500, 2.0, 1, 0.0).respike(spike)
    x = np.linspace(0.05, 1.1 * model.bulk_edge, 41)
    vals = density_shifted_chiral(model, x)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    for u in x[[5, 20, 35]] ** 2:
        want = _mp_q1(u, model.m, model.alpha, model.c)
        got = chiral_pq("q", 1, u, model.m, model.alpha, 1, model.c)
        assert got.sign == (1 if want > 0 else -1)
        assert abs(math.expm1(got.log_magnitude - float(mpmath.log(abs(want))))) < 1e-10
