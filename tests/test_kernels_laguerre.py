import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from spikesep.kernels import (
    SpikedLUE,
    density_spiked_lue,
    incomplete_laguerre,
    kernel_laguerre,
    kernel_spiked_lue,
)
from spikesep.kernels import laguerre as laguerre_module
from spikesep.kernels.common import materialize_columns
from spikesep.kernels.laguerre import lue_spike_term
from spikesep.kernels.contour import (
    contour_incomplete_laguerre_plain,
    contour_incomplete_laguerre_tilde,
)


def _gl(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def test_kernel_laguerre_diagonal_value():
    # n=1, a=0 diagonal: e^{-y}; at 0.3 -> 0.740818
    assert kernel_laguerre(1, 0.0, 0.3, 0.3) == pytest.approx(math.exp(-0.3), rel=1e-13)
    assert kernel_laguerre(1, 0.0, 0.3, 0.3) == pytest.approx(0.740818, abs=1e-6)


def test_kernel_laguerre_trace():
    n, a = 6, 0.5
    us, ws = _gl(1e-8, 8.0, 500)
    tr = float(np.sum(2 * us * ws * np.array([kernel_laguerre(n, a, u * u, u * u) for u in us])))
    assert abs(tr - n) < 1e-8


def test_kernel_laguerre_reproducing():
    n, a = 5, 2.0
    x, y = 1.3, 4.2
    us, ws = _gl(1e-8, 8.0, 500)
    ts = us * us
    lhs = float(np.sum(2 * us * ws * np.array(
        [kernel_laguerre(n, a, x, t) * kernel_laguerre(n, a, t, y) for t in ts])))
    assert abs(lhs - kernel_laguerre(n, a, x, y)) < 1e-8


def test_incomplete_laguerre_tilde_printed_form():
    # j = 1, r = 1: e^{-x(bt-1)} bt^{m+a}/(bt-1)^{m-1}
    #               - sum_p L^{a+p+2}_{m-2-p}(x) / (bt-1)^{p+1}
    m, a, bt, x = 5, 1.0, 0.5, 2.0
    got = incomplete_laguerre("tilde", 1, x, m, a, 1, bt).to_float()
    eps = bt - 1.0
    acc = math.exp(-x * eps) * bt ** (m + a) / eps ** (m - 1)
    for p in range(m - 1):
        acc -= float(eval_genlaguerre(m - 2 - p, a + p + 2, x)) / eps ** (p + 1)
    assert got == pytest.approx(acc, rel=1e-12)


def test_incomplete_laguerre_plain_corrected_ratio():
    # Lambda_1(x) = x^a e^{-x} L^a_{m-1}(x) Gamma(m)/Gamma(m+a): the ratio the
    # defining contour integral gives (and the one that satisfies
    # biorthonormality); the printed closed form has it inverted
    m, a, r, bt = 6, 2.0, 1, 0.7
    x = 1.3
    got = incomplete_laguerre("plain", 1, x, m, a, r, bt).to_float()
    expect = x**a * math.exp(-x) * float(eval_genlaguerre(m - 1, a, x)) * math.exp(
        gammaln(m) - gammaln(m + a)
    )
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(
        contour_incomplete_laguerre_plain(1, x, m, int(a), r, bt), rel=1e-9
    )


@pytest.mark.parametrize(
    "params", [(5, 1.0, 1, 0.5), (6, 1.0, 2, 0.4), (6, 2.0, 2, 1.8), (7, 0.5, 3, 0.6)]
)
def test_incomplete_laguerre_vs_contour_oracle(params):
    m, a, r, bt = params
    for j in range(1, r + 1):
        for x in (0.5, 2.0, 6.0):
            ct = incomplete_laguerre("tilde", j, x, m, a, r, bt).to_float()
            ot = contour_incomplete_laguerre_tilde(j, x, m, a, r, bt)
            assert ct == pytest.approx(ot, rel=1e-8)
            if a == int(a):
                cp = incomplete_laguerre("plain", j, x, m, a, r, bt).to_float()
                op = contour_incomplete_laguerre_plain(j, x, m, a, r, bt)
                assert cp == pytest.approx(op, rel=1e-8)


def test_biorthogonality_incomplete_laguerre():
    m, a, r, bt = 6, 1.0, 2, 0.4
    us, ws = _gl(1e-8, 11.5, 1100)
    ts = us * us
    jac = 2.0 * us * ws
    for j in (1, 2):
        ft = np.array([incomplete_laguerre("tilde", j, t, m, a, r, bt).to_float() for t in ts])
        for k in (1, 2):
            fp = np.array([incomplete_laguerre("plain", k, t, m, a, r, bt).to_float() for t in ts])
            val = float(np.sum(jac * ft * fp))
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-6


def test_btilde_to_one_limit():
    model_lo = SpikedLUE(6, 1.0, 2, 1.0 - 1e-6)
    model_hi = SpikedLUE(6, 1.0, 2, 1.0 + 1e-6)
    for x in (0.5, 3.0, 12.0):
        unspiked = kernel_laguerre(6, 1.0, x, x)
        assert density_spiked_lue(model_lo, x) == pytest.approx(unspiked, rel=1e-4)
        assert density_spiked_lue(model_hi, x) == pytest.approx(unspiked, rel=1e-4)


def test_branch_crossover_continuity():
    m, a, r = 6, 1.0, 2
    for j in (1, 2):
        for x in (0.8, 5.0):
            lo = incomplete_laguerre("tilde", j, x, m, a, r, 1.0 - 0.0199).to_float()
            hi = incomplete_laguerre("tilde", j, x, m, a, r, 1.0 - 0.0201).to_float()
            assert lo == pytest.approx(hi, rel=2e-2)


def test_density_trace_two_lobes():
    from scipy.integrate import simpson

    model = SpikedLUE(10, 0.5, 3, 0.05)
    u = np.linspace(1e-4, 7.0, 4001) ** 2
    t1 = simpson(density_spiked_lue(model, u) * 2 * np.sqrt(u), x=np.sqrt(u))
    xs2 = np.linspace(49.0, 900.0, 14001)
    t2 = simpson(density_spiked_lue(model, xs2), x=xs2)
    assert abs(t1 + t2 - 10.0) < 1e-6


def test_spike_lobe_matches_scaled_lue():
    # detached lobe vs r x r LUE with lambda -> btilde*lambda, a -> a + (m-r)
    model = SpikedLUE(10, 0.5, 3, 0.05)
    g = np.linspace(80.0, 700.0, 1901)
    full = density_spiked_lue(model, g)
    cmp_ = 0.05 * np.array([kernel_laguerre(3, 7.5, 0.05 * x, 0.05 * x) for x in g])
    a = full / np.trapezoid(full, g)
    b = cmp_ / np.trapezoid(cmp_, g)
    assert float(np.trapezoid(np.abs(a - b), g)) < 0.05


def test_large_btilde_bulk_matches_shifted_parameter():
    # btilde -> infinity: bulk matches (m-r) LUE with a -> a + r
    model = SpikedLUE(20, 3.0, 5, 100.0)
    g = np.linspace(1.0, 95.0, 1001)
    full = density_spiked_lue(model, g)
    cmp_ = np.array([kernel_laguerre(15, 8.0, x, x) for x in g])
    a = full / np.trapezoid(full, g)
    b = cmp_ / np.trapezoid(cmp_, g)
    assert float(np.trapezoid(np.abs(a - b), g)) < 0.05


def test_kernel_projection_spiked():
    model = SpikedLUE(5, 1.0, 2, 0.4)
    us, ws = _gl(1e-8, 10.5, 900)
    ts = us * us
    for (x, y) in [(0.7, 3.1), (2.0, 6.5)]:
        kxt = np.array([kernel_spiked_lue(model, x, t) for t in ts])
        kty = np.array([kernel_spiked_lue(model, t, y) for t in ts])
        lhs = float(np.sum(2.0 * us * ws * kxt * kty))
        assert abs(lhs - kernel_spiked_lue(model, x, y)) < 1e-6


def test_invalid_models():
    with pytest.raises(ValueError):
        SpikedLUE(5, -1.5, 1, 0.5)
    with pytest.raises(ValueError):
        SpikedLUE(5, 1.0, 6, 0.5)
    with pytest.raises(ValueError):
        SpikedLUE(5, 1.0, 1, 0.0)


@pytest.mark.parametrize("btilde", [0.05, 0.99])  # residue branch, merged-pole branch
def test_lue_spike_term_completes_the_bulk_on_the_diagonal(btilde):
    model = SpikedLUE(10, 0.5, 3, btilde)
    for x in (0.3, 2.0, 7.5, 20.0):
        bulk = kernel_laguerre(model.m - model.r, model.alpha + model.r, x, x)
        spike = lue_spike_term(model, x, x)
        assert density_spiked_lue(model, x) == pytest.approx(bulk + spike, rel=1e-10)


def test_merged_pole_rank_beyond_term_budget():
    # r = 170 exceeds the 160 extra coefficient-line rows of the merged-pole branch
    vals = density_spiked_lue(SpikedLUE(200, 1.0, 170, 0.99), np.array([1.0, 50.0, 300.0]))
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)


@pytest.mark.parametrize("model", [SpikedLUE(5, 1.0, 2, 0.4), SpikedLUE(5, 1.0, 2, 0.99)])
def test_kernel_and_spike_term_are_pointwise_over_arrays(model):
    # residue branch and merged-pole branch (|btilde - 1| < 0.02)
    x = np.linspace(0.2, 12.0, 41)
    y = 0.9 * x[::-1] + 0.1
    for fn in (kernel_spiked_lue, lue_spike_term):
        got = fn(model, x, y)
        assert got.shape == (41,)
        assert np.array_equal(got, [fn(model, a, b) for a, b in zip(x, y)])


def test_kernel_matrix_is_a_broadcast_call():
    model = SpikedLUE(5, 1.0, 2, 0.4)
    pts = np.array([0.7, 2.5, 6.0])
    k = kernel_spiked_lue(model, pts[:, None], pts[None, :])
    assert k.shape == (3, 3)
    assert np.array_equal(k, [[kernel_spiked_lue(model, a, b) for b in pts] for a in pts])


def _bulk(model, x, y=None):
    """The model's bulk K_{m-r}^{alpha+r} at the pairs (x, y), or on the diagonal."""
    points = x if y is None else np.concatenate([x, y])
    return materialize_columns(*model._bulk(points, model._weighted(points), x.size))


def _mp_bulk(n, a, x, y=None, dps=50):
    """sum_{p<n} phi_p^a(x) phi_p^a(y), y = x by default, from the phi recurrence at dps digits."""
    with mpmath.workdps(dps):
        am = mpmath.mpf(a)

        def phis(t):
            t = mpmath.mpf(t)
            prev, cur = 0, t ** (am / 2) * mpmath.exp(-t / 2) / mpmath.sqrt(mpmath.gamma(am + 1))
            out = [cur]
            for p in range(n - 1):
                c1 = (2 * p + am + 1 - t) / mpmath.sqrt((p + 1) * (p + 1 + am))
                c2 = mpmath.sqrt(p * (p + am) / ((p + 1) * (p + 1 + am)))
                prev, cur = cur, c1 * cur - c2 * prev
                out.append(cur)
            return out

        left = phis(x)
        right = left if y is None else phis(y)
        return float(mpmath.fsum(u * v for u, v in zip(left, right)))


@pytest.mark.parametrize(
    "alpha, lo, hi",
    [(0.5, 0.01, 2950.0), (3.0, 1000.0, 2900.0)],  # the LUE scans reach x = 2950
)
def test_christoffel_darboux_diagonal_against_mpmath(alpha, lo, hi):
    model = SpikedLUE(500, alpha, 1, 0.3)
    x = np.concatenate([np.geomspace(lo, hi, 8), np.linspace(lo, hi, 13)[1:-1]])
    ref = np.array([_mp_bulk(499, alpha + 1, xi) for xi in x])
    assert np.max(np.abs(_bulk(model, x) / ref - 1.0)) < 1e-9


@pytest.mark.parametrize(
    "m, alpha, lo, hi",
    [
        (5, 0.5, 0.01, 40.0),
        (5, 3.0, 0.01, 40.0),
        (500, 0.5, 0.01, 2950.0),
        (500, 0.5, 1000.0, 2900.0),  # the soft edge 4m, where the lines' logs reach 1000
        (500, 3.0, 1000.0, 2900.0),
    ],
)
def test_christoffel_darboux_off_diagonal_against_phi_sum(m, alpha, lo, hi):
    # the pairs `_bulk` sends to the phi sum meet it exactly; the rest test the bracket
    model = SpikedLUE(m, alpha, 1, 0.3)
    x = np.linspace(lo, hi, 401)
    k_max = np.max(kernel_laguerre(m - 1, alpha + 1, x, x))
    for gap in (1e-3, 1e-2, 0.1, 1.0, 10.0):
        y = np.where(x < 0.5 * (lo + hi), x + gap, x - gap)
        err = np.max(np.abs(_bulk(model, x, y) - kernel_laguerre(m - 1, alpha + 1, x, y)))
        assert err < 1e-10 * k_max, gap


def test_close_pairs_take_the_phi_sum(monkeypatch):
    # one ulp apart the bracket cancels completely; those pairs, and only
    # those, run the phi recurrence, while the pair one apart keeps the bracket
    model = SpikedLUE(500, 0.5, 1, 0.3)
    x = np.array([1450.0, 1990.0, 2000.0, 1450.0])
    y = np.append(np.nextafter(x[:3], np.inf), 1451.0)
    calls = []
    phi = laguerre_module.laguerre_weighted_signlog

    def counted(n, a, points):
        calls.append(np.size(points))
        return phi(n, a, points)

    monkeypatch.setattr(laguerre_module, "laguerre_weighted_signlog", counted)
    got = _bulk(model, x, y)
    assert calls == [6]
    ref = np.array([_mp_bulk(499, 1.5, u, v) for u, v in zip(x, y)])
    scale = np.sqrt([_mp_bulk(499, 1.5, u) * _mp_bulk(499, 1.5, v) for u, v in zip(x, y)])
    err = np.abs(got - ref) / scale  # against sqrt(K(x, x) K(y, y))
    assert np.all(err[:3] < 1e-12)
    assert err[3] < 1e-11  # the level below which `_bulk` keeps the bracket


@pytest.mark.parametrize("m, alpha", [(2, 0.5), (5, 2.0)])
def test_christoffel_darboux_edge_ranks(m, alpha):
    x = np.array([0.3, 2.0, 7.5])
    y = np.array([1.1, 2.0, 0.2])  # one pair on the diagonal
    # n = m - r = 1: the bulk is phi_0(x) phi_0(y) at parameter alpha + r
    a = alpha + m - 1
    phi0 = lambda t: np.exp(0.5 * a * np.log(t) - 0.5 * t - 0.5 * gammaln(a + 1.0))
    model = SpikedLUE(m, alpha, m - 1, 0.3)
    assert np.allclose(_bulk(model, x), phi0(x) ** 2, rtol=1e-14, atol=0)
    assert np.allclose(_bulk(model, x, y), phi0(x) * phi0(y), rtol=1e-13, atol=0)
    # n = 0: r = m, and the bulk is zero
    full = SpikedLUE(m, alpha, m, 0.3)
    assert np.array_equal(_bulk(full, x), np.zeros(3))
    assert np.array_equal(_bulk(full, x, y), np.zeros(3))


@pytest.mark.parametrize("model", [SpikedLUE(5, 1.0, 2, 0.4), SpikedLUE(5, 1.0, 2, 0.99)])
def test_families_rows_match_incomplete_laguerre(model):
    x = np.linspace(0.2, 12.0, 41)
    ts, tl, ps, pl = model.families(x)
    for j in range(1, model.r + 1):
        for kind, sign, log in (("tilde", ts, tl), ("plain", ps, pl)):
            vals = [incomplete_laguerre(kind, j, xi, model.m, model.alpha, model.r, model.btilde)
                    for xi in x]
            assert np.array_equal(sign[j - 1], [v.sign for v in vals])
            assert np.array_equal(log[j - 1], [v.log_magnitude for v in vals])


@pytest.mark.parametrize("model", [SpikedLUE(12, 1.0, 3, 0.3), SpikedLUE(12, 1.0, 3, 0.99)])
def test_density_and_kernel_recurrence_counts(monkeypatch, model):
    # residue branch and merged-pole branch: the two coefficient lines
    # (parameter sums M and M - 1), which also give the bulk, come from one
    # recurrence per call, on the call's points laid twice
    calls = []
    line = laguerre_module.laguerre_line_signlog

    def counted_line(n, big_m, x):
        calls.append(np.size(x))
        big = model.m + model.alpha
        assert np.array_equal(big_m, np.repeat([big, big - 1.0], np.size(x) // 2))
        return line(n, big_m, x)

    def unexpected(*args):
        raise AssertionError("a second recurrence ran")

    monkeypatch.setattr(laguerre_module, "laguerre_line_signlog", counted_line)
    monkeypatch.setattr(laguerre_module, "laguerre_weighted_signlog", unexpected)
    x = np.linspace(0.2, 9.0, 23)
    density_spiked_lue(model, x)
    assert calls == [46]
    calls.clear()
    kernel_spiked_lue(model, x, x[::-1])
    assert calls == [92]
    calls.clear()
    lue_spike_term(model, x, x[::-1])
    assert calls == [92]
    calls.clear()
    incomplete_laguerre("tilde", 1, 2.0, model.m, model.alpha, model.r, model.btilde)
    assert calls == [2]


def test_rank_zero_bulk_runs_the_phi_recurrence(monkeypatch):
    # at r = 0 there are no lines: the bulk is the phi_p^alpha sum
    def unexpected(*args):
        raise AssertionError("a line recurrence ran at rank 0")

    monkeypatch.setattr(laguerre_module, "laguerre_line_signlog", unexpected)
    x = np.linspace(0.2, 9.0, 23)
    assert np.allclose(density_spiked_lue(SpikedLUE(4, 1.0, 0, 0.5), x), kernel_laguerre(4, 1.0, x, x))


@pytest.mark.parametrize(
    "model, lo, hi",
    [
        (SpikedLUE(500, 0.5, 1, 0.3), 1700.0, 2950.0),  # a benchmark scan's grid
        (SpikedLUE(500, 0.5, 1, 0.99), 1.0, 2100.0),  # the merged-pole curve
    ],
)
def test_density_memory_peak(model, lo, hi):
    # one stack holds both lines through the bulk and the families; the peak
    # stays below what three groups held alongside each family's
    # temporaries would reach (about 14.5 MiB at 501 points)
    x = np.linspace(lo, hi, 501)
    density_spiked_lue(model, x)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        density_spiked_lue(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.5 * 2**20


def test_nan_points_raise():
    model = SpikedLUE(5, 1.0, 2, 0.4)
    x = np.array([1.0, np.nan])
    with pytest.raises(ValueError):
        kernel_spiked_lue(model, x, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        kernel_spiked_lue(model, np.array([1.0, 2.0]), x)
    with pytest.raises(ValueError):
        model.families(x)
    with pytest.raises(ValueError):
        lue_spike_term(model, x, x)
    with pytest.raises(ValueError):
        kernel_laguerre(3, 0.5, np.nan, 1.0)


def test_kernel_laguerre_at_zero():
    # phi_p(0) diverges for a < 0: a zero argument raises, as the density does
    for x, y in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
        with pytest.raises(ValueError, match="x = 0"):
            kernel_laguerre(3, -0.5, x, y)
    with pytest.raises(ValueError, match="x = 0"):
        density_spiked_lue(SpikedLUE(3, -0.5, 0, 1.0), 0.0)
    # a >= 0: phi_p(0) is finite, and K_n(0, 0) = sum_p phi_p(0)^2
    assert kernel_laguerre(3, 0.0, 0.0, 0.0) == pytest.approx(3.0, rel=1e-12)
    assert abs(kernel_laguerre(3, 0.5, 0.0, 1.0)) < 1e-70  # phi_p(0) = 0 for a > 0


def _mp_ltilde_1(x, m, alpha, btilde, dps=650):
    """Ltilde_1(x) of a rank-one spiked LUE as its residue pair at dps digits,
    e^{-x eps} (1 + eps)^M / eps^q0 - sum_{p<q0} eps^{-(p+1)} T_{q0-1-p}(x), with
    eps = btilde - 1, M = m + alpha, q0 = m - 1 and T_q from its recurrence."""
    with mpmath.workdps(dps):
        x, eps, big_m = mpmath.mpf(x), mpmath.mpf(btilde) - 1, mpmath.mpf(m) + alpha
        q0 = m - 1
        t = [mpmath.mpf(1), big_m - x]
        for q in range(1, q0 - 1):
            t.append(((big_m - x - q) * t[q] - x * t[q - 1]) / (q + 1))
        value = mpmath.exp(-x * eps) * (1 + eps) ** big_m / eps**q0
        return value - mpmath.fsum(t[q0 - 1 - p] / eps ** (p + 1) for p in range(q0))


# verify's predictor_mc model: its residue pair cancels ~390 nats at x = 50,
# where the density read -9.76e155
DEEP_LUE = SpikedLUE(500, 3.0, 1, 1.0 / 3.0)


@pytest.mark.parametrize("x", [50.0, 500.0])
def test_deep_family_against_600_digits(x):
    want = _mp_ltilde_1(x, DEEP_LUE.m, DEEP_LUE.alpha, DEEP_LUE.btilde)
    got = incomplete_laguerre("tilde", 1, x, DEEP_LUE.m, DEEP_LUE.alpha, 1, DEEP_LUE.btilde)
    assert got.sign == (1 if want > 0 else -1)
    assert abs(math.expm1(got.log_magnitude - float(mpmath.log(abs(want))))) < 1e-10


def test_deep_density_is_finite_nonnegative_and_traces_to_m():
    vals = density_spiked_lue(DEEP_LUE, np.linspace(1.0, 1000.0, 1000))
    assert np.all(np.isfinite(vals)) and np.all(vals >= -1e-10)

    def trace(panels):
        # composite Gauss-Legendre in u = sqrt(x), where the eigenvalues are
        # about evenly spaced, over the whole support (the density is 1e-94 at x = 3600)
        g, w = np.polynomial.legendre.leggauss(20)
        edges = np.linspace(0.0, 60.0, panels + 1)
        half = 0.5 * np.diff(edges)
        us = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * g).ravel()
        ws = (half[:, None] * w).ravel()
        return float(np.sum(2.0 * us * ws * density_spiked_lue(DEEP_LUE, us * us)))

    coarse, fine = trace(120), trace(240)
    assert abs(fine - coarse) < 1e-7  # converged
    assert abs(fine - DEEP_LUE.m) < 1e-6
