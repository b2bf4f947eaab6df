"""Machine-checkable cross-validation suite.

Every closed form that has an independent oracle (dense eigensolver,
quadrature, contour integral, partition series, Monte Carlo) is re-derived
here and compared at an explicit tolerance.  `run_verify` returns a
JSON-serializable report; any failed check gives a nonzero exit through the
CLI.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .. import jointpdf, spectra
from ..ensembles import SeedStream, draw_gaussian_rectangular, eigensolver_residual, sample_spectrum
from ..kernels import (
    ShiftedChiral,
    ShiftedGUE,
    SpikedLUE,
    chiral_asymptotic_pq,
    chiral_pq,
    chiral_spike_term,
    correl_n,
    density_shifted_chiral,
    density_shifted_gue,
    density_spiked_lue,
    incomplete_hermite,
    incomplete_laguerre,
    kernel_shifted_chiral,
    kernel_shifted_gue,
    kernel_shifted_gue_asymptotic,
    kernel_spiked_lue,
    spike_term_shifted_gue,
)
from ..kernels.common import materialize_columns
from ..kernels.contour import (
    contour_chiral_q,
    contour_incomplete_hermite_plain,
    contour_incomplete_hermite_tilde,
    contour_incomplete_laguerre_plain,
    contour_incomplete_laguerre_tilde,
)
from ..secular import SecularProblem, chiral_secular_eigenvalues, secular_eigenvalues
from ..specialfn import hermite_weighted_signlog, laguerre_weighted_signlog
from .experiments import sample_batch

__all__ = ["run_verify", "CheckResult", "SUITES"]


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0
    margin: Optional[float] = None  # measured / tolerance; None for a pass/fail (tolerance 0) check


@functools.lru_cache(maxsize=None)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n (read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_nodes(lo, hi, n):
    x, w = _leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


# ---------------------------------------------------------------------------
# specialfn

def _check_hermite_orthonormality():
    xs, ws = _gl_nodes(-14.0, 14.0, 400)
    psi = materialize_columns(*hermite_weighted_signlog(20, xs)).T  # (nodes, 20)
    gram = (psi * ws[:, None]).T @ psi
    err = float(np.max(np.abs(gram - np.eye(20))))
    return err < 1e-8, err, 1e-8, "Gauss-Legendre Gram matrix, orders < 20"


def _check_laguerre_orthonormality():
    worst = 0.0
    for a in (0.0, 0.5, 3.0):
        us, ws = _gl_nodes(1e-9, 11.0, 400)  # x = u^2 substitution
        phi = materialize_columns(*laguerre_weighted_signlog(20, a, us * us)).T
        gram = (phi * (2.0 * us * ws)[:, None]).T @ phi
        worst = max(worst, float(np.max(np.abs(gram - np.eye(20)))))
    return worst < 1e-8, worst, 1e-8, "a in {0, 0.5, 3}, x=u^2 substitution"


# ---------------------------------------------------------------------------
# spectra

def _stieltjes_quadrature(law, z):
    lo, hi = spectra.support(law)
    if isinstance(law, spectra.Semicircle):
        th, w = _gl_nodes(-0.5 * math.pi, 0.5 * math.pi, 3000)
        x = law.edge * np.sin(th)
        jac = law.edge * np.cos(th)
    else:
        th, w = _gl_nodes(0.0, math.pi, 3000)
        half = 0.5 * (hi - lo)
        # each node from its nearer edge keeps the offset from a hard (x^{-1/2}) edge
        x = np.where(th > 0.5 * math.pi, lo + 2.0 * half * np.cos(0.5 * th) ** 2,
                     hi - 2.0 * half * np.sin(0.5 * th) ** 2)
        jac = half * np.sin(th)
    dens = spectra.density(law, x)
    val = float(np.sum(w * dens * jac / (z - x)))
    _, weight = spectra.point_mass(law)
    return val + weight / z


def _check_stieltjes_vs_quadrature():
    worst = 0.0
    for law in (spectra.Semicircle(9), spectra.MarchenkoPasturFixedDiff(6),
                spectra.MarchenkoPasturGamma(2.5)):
        _, hi = spectra.support(law)
        for f in (1.05, 1.5, 3.0):
            z = f * hi
            closed = spectra.stieltjes(law, z)
            quad = _stieltjes_quadrature(law, z)
            worst = max(worst, abs(closed - quad) / abs(closed))
    return worst < 1e-10, worst, 1e-10, "3 laws x 3 evaluation points"


def _bisect_root(spike_at, edge, spike):
    """The z > edge where the increasing spike_at(z) reaches spike, to adjacent doubles."""
    lo, hi = edge, 2.0 * edge
    while spike_at(hi) < spike:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if spike_at(mid) < spike else (lo, mid)
    return hi


def _check_predictor_vs_law():
    """Each closed-form predictor against its secular equation's large-N limit,
    a condition on the law's Stieltjes transform G solved for the spike that
    puts the separated eigenvalue at z: GUE c G(z)/N = 1 and chiral
    sqrt(z) G(z) = 1/c (z = sigma^2) for the shift c = spike J/2; LUE
    z G(z) - 1 = 1/(s - 1) for the covariance spike s, where in the
    proportional regime gamma G - (gamma - 1)/z is the m x m transform and
    m z the eigenvalue.  The root must be the location, the edge's spike the
    threshold."""
    sc, fd = spectra.Semicircle(500), spectra.MarchenkoPasturFixedDiff(500)
    g2, stieltjes = spectra.MarchenkoPasturGamma(2.0), spectra.stieltjes
    gue, chiral = ShiftedGUE(500, 1, 0.0), ShiftedChiral(500, 3.0, 1, 0.0)
    fixed = SpikedLUE(500, 3.0, 1, 0.5)
    proportional = SpikedLUE(250, 250.0, 1, 0.5, regime="proportional")
    cases = [  # (predictor of the spike, spike at z, law's edge, location at z)
        (gue.predictor, lambda z: 2.0 * sc.n / (gue.bulk_edge * stieltjes(sc, z)),
         sc.edge, lambda z: z),
        (chiral.predictor, lambda z: 2.0 / (chiral.bulk_edge * math.sqrt(z) * stieltjes(fd, z)),
         4.0 * fd.m, math.sqrt),
        (lambda s: fixed.predictor(1.0 / s), lambda z: 1.0 + 1.0 / (z * stieltjes(fd, z) - 1.0),
         4.0 * fd.m, lambda z: z),
        (lambda s: proportional.predictor(1.0 / s),
         lambda z: 1.0 + 1.0 / (g2.gamma * (z * stieltjes(g2, z) - 1.0)),
         g2.upper_edge, lambda z: proportional.m * z),
    ]
    worst = worst_threshold = 0.0
    for predict, spike_at, edge, location_at in cases:
        threshold = predict(1.0).threshold
        at_edge = spike_at(edge * (1.0 + 1e-12))
        worst_threshold = max(worst_threshold, abs(threshold - at_edge) / at_edge)
        for f in (1.05, 1.5, 2.0, 3.0, 10.0):
            pred = predict(f * threshold)
            if not pred.above_threshold:
                return False, 1.0, 0.0, f"no separation predicted at {f} x threshold"
            root = location_at(_bisect_root(spike_at, edge, f * threshold))
            worst = max(worst, abs(pred.location - root) / root)
    if worst_threshold >= 1e-5:
        return False, worst_threshold, 1e-5, "a threshold is not the spike at the law's edge"
    return (worst < 1e-12, worst, 1e-12,
            f"4 models x 5 spikes; thresholds within {worst_threshold:.1e} of the edge spike")


# ---------------------------------------------------------------------------
# secular

def _check_secular_vs_dense():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 51))
        mu = float(rng.choice([0.1, 1.0, 10.0]))
        diag = np.sort(rng.normal(0, 3, n))[::-1]
        w = rng.normal(size=n) ** 2
        lam = secular_eigenvalues(SecularProblem(diag, w, mu))
        mat = np.diag(diag) + mu * np.outer(np.sqrt(w), np.sqrt(w))
        ref = np.linalg.eigvalsh(mat)[::-1]
        scale = max(np.max(np.abs(ref)), 1.0)
        worst = max(worst, float(np.max(np.abs(lam - ref)) / scale))
    return worst < 1e-9, worst, 1e-9, "200 random instances, N <= 50"


def _check_interlacing():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        diag = np.sort(rng.normal(0, 2, n))[::-1]
        w = rng.normal(size=n) ** 2 + 1e-3
        mu = 0.7
        lam = secular_eigenvalues(SecularProblem(diag, w, mu))
        if not (np.all(lam[:-1] > diag[:-1]) and np.all(lam[1:] < diag[:-1]) and lam[-1] > diag[-1]):
            return False, 1.0, 0.0, "interlacing violated"
    return True, 0.0, 0.0, "50 random instances"


def _check_chiral_secular_oracle():
    worst = 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        xval = complex(rng.normal(), rng.normal())
        mu = float(rng.uniform(0.1, 2.0))
        u = np.array([xval / (math.sqrt(2.0) * abs(xval))])
        v = np.array([1.0 / math.sqrt(2.0)])
        roots = chiral_secular_eigenvalues([abs(xval)], u, v, mu, n=1)
        truth = abs(xval + mu)
        worst = max(worst, abs(roots[0] - truth) / truth)
    return worst < 1e-10, worst, 1e-10, "m=n=1 vs |x + mu| eigendecomposition"


def _check_chiral_averaged_interlacing():
    rng = np.random.default_rng(11)
    sing = np.sort(rng.uniform(0.5, 6.0, 5))
    roots = chiral_secular_eigenvalues(sing, mu=0.8, n=7)
    ok = np.all(roots[:-1] > sing[:-1]) and np.all(roots[:-1] < sing[1:]) and roots[-1] > sing[-1]
    return bool(ok), 0.0 if ok else 1.0, 0.0, "averaged mode, m=5"


def _check_predictor_consistency():
    worst = 0.0
    fixed = SpikedLUE(500, 3.0, 1, 0.5)
    proportional = SpikedLUE(500, 0.0, 1, 0.5, regime="proportional")
    for s in (2.1, 3.0, 4.0, 10.0):
        a = fixed.predictor(1.0 / s).location
        b = proportional.predictor(1.0 / s).location
        worst = max(worst, abs(a - b) / a)
    at_threshold = fixed.predictor(1.0 / 2.0)
    if at_threshold.above_threshold:
        return False, 1.0, 0.0, "threshold case must not separate"
    return worst < 1e-12, worst, 1e-12, "gamma=1 fixed/proportional agreement"


# ---------------------------------------------------------------------------
# ensembles

def _check_determinism():
    model = ShiftedGUE(12, 2, 3.0)
    edges = np.linspace(-8.0, 10.0, 41)
    c1, l1 = sample_batch(model, 2, 200, 99, edges, workers=1)
    c2, l2 = sample_batch(model, 2, 200, 99, edges, workers=3)
    same = np.array_equal(c1, c2) and np.array_equal(l1, l2)
    return bool(same), 0.0 if same else 1.0, 0.0, "1 vs 3 workers, bitwise-equal results"


def _check_eigensolver_residual():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100))
        a = a + a.conj().T
        worst = max(worst, eigensolver_residual(a))
    return worst < 1e-10, worst, 1e-10, "20 random Hermitian matrices, dim 100"


def _check_chiral_sampler_structure():
    stream = SeedStream(17)
    model = ShiftedChiral(12, 3.0, 3, 4.0)
    n, m = 15, 12
    worst = 0.0
    for t in range(10):
        x = draw_gaussian_rectangular(stream.generator(t), n, m, 2)
        x[np.arange(model.r), np.arange(model.r)] += model.c
        block = np.block([[np.zeros((n, n)), x], [x.conj().T, np.zeros((m, m))]])
        eig = np.linalg.eigvalsh(block)
        sing = sample_spectrum(model, 2, stream, t)
        expected = np.sort(np.concatenate([-sing, np.zeros(n - m), sing]))
        worst = max(worst, float(np.max(np.abs(eig - expected)) / np.max(np.abs(eig))))
    ok = worst < 1e-8
    return ok, 0.0 if ok else 1.0, 0.0, (
        f"(n+m)-square chiral block vs +-sample_spectrum and n-m zeros, 10 trials, "
        f"worst {worst:.1e} of the largest |eigenvalue| (tolerance 1e-8)")


def _check_wishart_trace_mc():
    model = SpikedLUE(30, 3.0, 2, 0.25)
    stream = SeedStream(23)
    trials = 3000
    traces = np.array([
        float(np.sum(sample_spectrum(model, 2, stream, t))) for t in range(trials)
    ])
    expected = 33 * (30 - 2) + 33 * 2 * 4.0
    se = float(np.std(traces, ddof=1) / math.sqrt(trials))
    dev = abs(float(np.mean(traces)) - expected)
    return dev < 3 * se, dev / se, 3.0, f"E[Tr] = {expected}, measured within {dev/se:.2f} SE"


# ---------------------------------------------------------------------------
# kernels

def _check_hermite_contour():
    worst = 0.0
    for (n, r, c) in [(6, 1, 2.0), (8, 3, 2.0), (8, 2, 1.0), (6, 2, 0.35)]:
        for j in range(1, r + 1):
            for x in (0.7, -1.3, 2.5):
                ct = incomplete_hermite("tilde", j, x, n, r, c).to_float()
                ot = contour_incomplete_hermite_tilde(j, x, n, r, c)
                cp = incomplete_hermite("plain", j, x, n, r, c).to_float()
                op = contour_incomplete_hermite_plain(j, x, n, r, c)
                worst = max(worst, abs(ct - ot) / abs(ot), abs(cp - op) / abs(op))
    return worst < 1e-8, worst, 1e-8, "j <= 3, N <= 8, c <= 2, both families"


def _check_laguerre_contour():
    worst = 0.0
    for (m, a, r, bt) in [(5, 1.0, 1, 0.5), (6, 1.0, 2, 0.4), (6, 2.0, 2, 1.8)]:
        for j in range(1, r + 1):
            for x in (0.5, 2.0, 6.0):
                ct = incomplete_laguerre("tilde", j, x, m, a, r, bt).to_float()
                ot = contour_incomplete_laguerre_tilde(j, x, m, a, r, bt)
                worst = max(worst, abs(ct - ot) / abs(ot))
                cp = incomplete_laguerre("plain", j, x, m, a, r, bt).to_float()
                op = contour_incomplete_laguerre_plain(j, x, m, a, r, bt)
                worst = max(worst, abs(cp - op) / abs(op))
    return worst < 1e-8, worst, 1e-8, "j <= 2, m <= 6, integer alpha, both families"


def _check_chiral_contour():
    worst = 0.0
    for (m, a, r, c) in [(6, 2.0, 2, 1.5), (5, 0.5, 1, 1.0)]:
        for k in range(1, r + 1):
            for x in (0.5, 2.0, 5.0):
                cq = chiral_pq("q", k, x, m, a, r, c).to_float()
                oq = contour_chiral_q(k, x, m, a, r, c)
                worst = max(worst, abs(cq - oq) / abs(oq))
    return worst < 1e-8, worst, 1e-8, "k <= 2, m <= 6, small c"


def _check_kernel_traces():
    worst = 0.0
    xs, ws = _gl_nodes(-8.5, 11.5, 1200)
    tr = float(np.sum(ws * density_shifted_gue(ShiftedGUE(8, 2, 3.0), xs)))
    worst = max(worst, abs(tr - 8.0))
    lue = SpikedLUE(6, 1.0, 2, 0.4)
    us, ws = _gl_nodes(1e-6, 11.5, 1400)  # x = u^2; covers the detached lobe tail
    tr = float(np.sum(2.0 * us * ws * density_spiked_lue(lue, us * us)))
    worst = max(worst, abs(tr - 6.0))
    ch = ShiftedChiral(6, 2.0, 2, 3.0)
    xs, ws = _gl_nodes(1e-6, 10.5, 1000)
    tr = float(np.sum(ws * density_shifted_chiral(ch, xs)))
    worst = max(worst, abs(tr - 6.0))
    return worst < 1e-6, worst, 1e-6, "trace = dimension for the three families"


def _projection_gap(kernel, model, nodes, weights, lo, hi, rng):
    """Largest |int K(x,t)K(t,y) dt - K(x,y)| over 5 random (x, y) in [lo, hi]."""
    worst = 0.0
    for _ in range(5):
        x, y = rng.uniform(lo, hi, 2)
        lhs = float(np.sum(weights * kernel(model, x, nodes) * kernel(model, nodes, y)))
        worst = max(worst, abs(lhs - kernel(model, x, y)))
    return worst


def _check_kernel_projection():
    rng = np.random.default_rng(19)
    xs, ws = _gl_nodes(-8.0, 9.0, 700)
    worst = _projection_gap(kernel_shifted_gue, ShiftedGUE(6, 2, 2.0), xs, ws, -2.0, 4.0, rng)
    us, ws = _gl_nodes(1e-6, 10.5, 900)
    worst = max(worst, _projection_gap(
        kernel_spiked_lue, SpikedLUE(5, 1.0, 2, 0.4), us * us, 2.0 * us * ws, 0.3, 8.0, rng
    ))
    us, ws = _gl_nodes(1e-6, 9.0, 700)
    worst = max(worst, _projection_gap(
        kernel_shifted_chiral, ShiftedChiral(5, 1.0, 2, 2.0), us, 2.0 * us * ws, 0.5, 4.0, rng
    ))
    return worst < 1e-6, worst, 1e-6, "int K(x,t)K(t,y) dt = K(x,y), 5 pairs per family"


def _biorthogonality_gap(model, nodes, weights):
    """Largest |int left_j right_k - delta_jk| over the model's two families."""
    ls, ll, rs, rl = model.families(nodes)
    left, right = materialize_columns(ls, ll), materialize_columns(rs, rl)
    return max(
        abs(float(np.sum(weights * left[j] * right[k])) - (1.0 if j == k else 0.0))
        for j in range(model.r) for k in range(model.r)
    )


def _check_biorthogonality():
    xs, ws = _gl_nodes(-9.0, 9.0, 800)
    worst = _biorthogonality_gap(ShiftedGUE(7, 2, 1.5), xs, ws)
    us, ws = _gl_nodes(1e-6, 11.5, 1100)
    ts, jac = us * us, 2.0 * us * ws
    worst = max(worst, _biorthogonality_gap(SpikedLUE(6, 1.0, 2, 0.4), ts, jac))
    worst = max(worst, _biorthogonality_gap(ShiftedChiral(6, 2.0, 2, 1.5), ts, jac))
    return worst < 1e-6, worst, 1e-6, "(Gtilde,Gamma), (Ltilde,Lambda), (p,q) pairs"


def _check_asymptotic_convergence():
    devs_g = []
    for c in (10.0, 15.0, 20.0, 30.0):
        ex = spike_term_shifted_gue(ShiftedGUE(4, 2, c), c, c)
        asym = kernel_shifted_gue_asymptotic(2, c, c, c)
        devs_g.append(abs(ex - asym) / abs(asym))
    devs_c = []
    for c in (10.0, 15.0, 20.0, 30.0):
        ex = chiral_spike_term(ShiftedChiral(4, 0.0, 3, c), c * c, c * c)
        asym = chiral_asymptotic_pq(3, c, c * c, c * c)
        devs_c.append(abs(ex - asym) / abs(asym))
    mono = all(devs_g[i + 1] < devs_g[i] for i in range(3)) and all(
        devs_c[i + 1] < devs_c[i] for i in range(3)
    )
    worst15 = max(devs_g[1], devs_c[1])
    ok = mono and worst15 < 2e-2
    return ok, worst15, 2e-2, f"deviation at c=15 (gue {devs_g[1]:.4f}, chiral {devs_c[1]:.4f}), monotone={mono}"


def _check_correl_symmetry():
    model = ShiftedGUE(6, 2, 2.0)
    pts = np.array([0.3, -1.1, 1.7])
    base = correl_n(model, pts)
    worst = 0.0
    import itertools as it

    for perm in it.permutations(range(3)):
        worst = max(worst, abs(correl_n(model, pts[list(perm)]) - base) / abs(base))
    return worst < 1e-12, worst, 1e-12, "3-point correlation under permutations"


# ---------------------------------------------------------------------------
# jointpdf

def _check_series_vs_determinant():
    worst = 0.0
    x2, y2 = np.array([0.1, 0.3]), np.array([0.2, 0.5])
    x3, y3 = np.array([0.1, 0.25, 0.4]), np.array([0.15, 0.3, 0.55])
    for (x, y) in [(x2, y2), (x3, y3)]:
        d = jointpdf.f00_unitary(x, y).to_float()
        s = jointpdf.series_f00(x, y)
        worst = max(worst, abs(d - s) / abs(s))
        d = jointpdf.f01_unitary(4.5, x, y).to_float()
        s = jointpdf.series_f01(4.5, x, y)
        worst = max(worst, abs(d - s) / abs(s))
    return worst < 1e-8, worst, 1e-8, "0F0/0F1 determinant vs partition series, N = 2, 3"


def _check_green_limits():
    # tau -> 0: the log-ratio to the sharp-front form, differenced across two
    # eigenvalue configurations, must converge (tau-only constants cancel in
    # the config difference; its limit is the smooth prefactor's log-ratio)
    lam_a = np.array([0.7, 1.4])
    lam_b = np.array([0.5, 1.9])
    lam0 = np.array([1.0, 1.0 + 1e-8])
    rr = []
    for tau in (1e-2, 1e-3, 1e-4):
        ratios = []
        for lam in (lam_a, lam_b):
            g = jointpdf.green_function("gaussian", jointpdf.EigenConfiguration(lam, lam0, tau))
            front = (-(0.5 / tau) * float(np.sum((np.sort(lam) - np.sort(lam0)) ** 2))
                     + 2.0 * math.log(abs(lam[1] - lam[0])))
            ratios.append(g.log_magnitude - front)
        rr.append(ratios[0] - ratios[1])
    drift = [abs(rr[1] - rr[0]), abs(rr[2] - rr[1])]
    ok_front = drift[1] < drift[0] and drift[1] < 1e-3
    # tau -> infinity: equilibrium on a grid (N = 2, well-separated source),
    # L1 after normalization
    sep_lam0 = np.array([0.5, 1.5])
    xs = np.linspace(-4.0, 4.0, 81)
    tau = 20.0
    vals = np.zeros((xs.size, xs.size))
    eq = np.zeros_like(vals)
    for i, a in enumerate(xs):
        for j, b in enumerate(xs):
            if b - a < 1e-3:
                continue
            lam = np.array([a, b])
            vals[i, j] = jointpdf.green_function(
                "gaussian", jointpdf.EigenConfiguration(lam, sep_lam0, tau)
            ).to_float()
            eq[i, j] = (b - a) ** 2 * math.exp(-(a * a + b * b))
    vals /= vals.sum()
    eq /= eq.sum()
    l1 = float(np.abs(vals - eq).sum())
    ok = ok_front and l1 < 1e-4
    return ok, l1, 1e-4, f"front log-ratio spreads {['%.2e' % d for d in drift]}, equilibrium L1 {l1:.2e}"


def _second_difference_spread(logs):
    arr = np.asarray(logs)
    return float(np.max(arr) - np.min(arr))


def _check_factorization():
    rng = np.random.default_rng(31)
    spreads = []
    # Gaussian shift: N=4, r=2, source eigenvalues (0,0,c,c), c = 10x bulk scale;
    # product form = two Gaussian blocks times the half-power cross factor
    c = 20.0
    logs = []
    for _ in range(10):
        bulk = np.sort(rng.uniform(-1.5, 1.5, 2))
        spike = np.sort(c + rng.uniform(-1.0, 1.0, 2))
        lam = np.concatenate([bulk, spike])
        lam0 = np.array([0.0, 1e-6, c, c + 2e-6])
        g = jointpdf.joint_pdf(ShiftedGUE(4, 2, c), jointpdf.EigenConfiguration(lam, lam0))
        prod = (
            -float(np.sum((spike - c) ** 2))
            - float(np.sum(bulk**2))
            + 2.0 * math.log(abs(spike[1] - spike[0]))
            + 2.0 * math.log(abs(bulk[1] - bulk[0]))
            + float(np.sum([math.log(abs(s - b)) for s in spike for b in bulk]))
        )
        logs.append(g.log_magnitude - prod)
    spreads.append(_second_difference_spread(logs))
    # Wishart spike btilde -> 0 (covariance spike 1/btilde), m=4, r=2; the
    # stated product already carries the cross correction as lambda^{m-r}
    btilde = 0.02
    logs = []
    alpha = 1  # n - m
    for _ in range(10):
        bulk = np.sort(rng.uniform(0.5, 4.0, 2))
        spike = np.sort(rng.uniform(30.0, 90.0, 2)) / btilde * 0.5
        lam = np.concatenate([bulk, spike])
        lam0 = np.array([btilde, btilde + 1e-6, 1.0, 1.0 + 2e-6])
        g = jointpdf.joint_pdf(SpikedLUE(4, 1.0, 2, btilde), jointpdf.EigenConfiguration(lam, lam0))
        prod = (
            float((alpha + 2.0) * np.sum(np.log(spike)) - btilde * np.sum(spike))
            + float(alpha * np.sum(np.log(bulk)) - np.sum(bulk))
            + 2.0 * math.log(abs(spike[1] - spike[0]))
            + 2.0 * math.log(abs(bulk[1] - bulk[0]))
        )
        logs.append(g.log_magnitude - prod)
    spreads.append(_second_difference_spread(logs))
    # Wishart btilde -> infinity: bulk block keeps alpha + r
    btilde = 200.0
    rng2 = np.random.default_rng(13)
    logs = []
    for _ in range(10):
        bulk = np.sort(rng2.uniform(0.5, 4.0, 2))
        spike = np.sort(rng2.uniform(0.5, 3.0, 2)) / btilde
        lam = np.concatenate([spike, bulk])
        lam0 = np.array([btilde, btilde + 1e-4, 1.0, 1.0 + 2e-6])
        g = jointpdf.joint_pdf(SpikedLUE(4, 1.0, 2, btilde), jointpdf.EigenConfiguration(lam, lam0))
        prod = (
            float(alpha * np.sum(np.log(spike)) - btilde * np.sum(spike))
            + float((alpha + 2.0) * np.sum(np.log(bulk)) - np.sum(bulk))
            + 2.0 * math.log(abs(spike[1] - spike[0]))
            + 2.0 * math.log(abs(bulk[1] - bulk[0]))
        )
        logs.append(g.log_magnitude - prod)
    spreads.append(_second_difference_spread(logs))
    # chiral shift, m=4, r=2, singular-value source c; half-power cross factor
    # in lambda^2 plus the spike block's residual lambda^{alpha+1} weight
    c = 25.0
    alpha = 1
    logs = []
    for _ in range(10):
        bulk = np.sort(rng.uniform(0.4, 1.6, 2))
        spike = np.sort(c + rng.uniform(-1.0, 1.0, 2))
        lam = np.concatenate([bulk, spike])
        lam0 = np.array([1e-3, 2e-3, c, c + 1e-4])
        alphap = alpha + 0.5
        g = jointpdf.joint_pdf(ShiftedChiral(4, 1.0, 2, c), jointpdf.EigenConfiguration(lam, lam0))
        prod = (
            -float(np.sum((spike - c) ** 2))
            + 2.0 * math.log(abs(spike[1] - spike[0]))
            + (alpha + 1.0) * float(np.sum(np.log(spike)))
            + 2.0 * alphap * float(np.sum(np.log(bulk)))
            - float(np.sum(bulk**2))
            + 2.0 * math.log(abs(bulk[1] ** 2 - bulk[0] ** 2))
            + float(np.sum([math.log(abs(s * s - b * b)) for s in spike for b in bulk]))
        )
        logs.append(g.log_magnitude - prod)
    spreads.append(_second_difference_spread(logs))
    worst = max(spreads)
    return worst < 0.05, worst, 0.05, f"log-residual spreads {['%.4f' % s for s in spreads]}"


# ---------------------------------------------------------------------------
# mc (heavy): predictor arbitration

def _mc_largest_mean(kernel_model, trials, seed):
    edges = np.linspace(0.0, 1.0, 3)  # histogram unused here
    _, largest = sample_batch(kernel_model, 2, trials, seed, edges)
    return float(np.mean(largest))


def _check_predictor_mc():
    results = []
    # (model, predictor spike, seed): shifted GUE at c = 1.5 (spike value
    # c*J/2), Wishart spike at s = 3 (n - m fixed), chiral at c = 1.5 (spike
    # singular value c*J/2, J = 2 sqrt(m))
    for model, spike, seed in [
        (ShiftedGUE(500, 1, 1.5 * math.sqrt(1000.0) / 2.0), 1.5, 1001),
        (SpikedLUE(500, 3.0, 1, 1.0 / 3.0), 1.0 / 3.0, 1002),
        (ShiftedChiral(500, 3.0, 1, 1.5 * math.sqrt(500.0)), 1.5, 1003),
    ]:
        pred = model.predictor(spike)
        mean = _mc_largest_mean(model, 200, seed)
        results.append(abs(mean - pred.location) / pred.location)
    worst = max(results)
    return worst < 0.02, worst, 0.02, f"relative errors {['%.4f' % r for r in results]}"


def _check_predictor_mc_gamma():
    btilde = 1.0 / (1.5 * (1.0 + 1.0 / math.sqrt(2.0)))
    model = SpikedLUE(250, 250.0, 1, btilde, regime="proportional")
    pred = model.predictor(btilde)
    rel = abs(_mc_largest_mean(model, 200, 1004) - pred.location) / pred.location
    return rel < 0.02, rel, 0.02, "gamma = 2 variant, m = 250"


SUITES = {
    "specialfn": [
        ("hermite_orthonormality", _check_hermite_orthonormality),
        ("laguerre_orthonormality", _check_laguerre_orthonormality),
    ],
    "spectra": [
        ("stieltjes_vs_quadrature", _check_stieltjes_vs_quadrature),
        ("predictor_vs_law", _check_predictor_vs_law),
    ],
    "secular": [
        ("secular_vs_dense", _check_secular_vs_dense),
        ("interlacing", _check_interlacing),
        ("chiral_secular_oracle", _check_chiral_secular_oracle),
        ("chiral_averaged_interlacing", _check_chiral_averaged_interlacing),
        ("predictor_consistency", _check_predictor_consistency),
    ],
    "ensembles": [
        ("determinism", _check_determinism),
        ("eigensolver_residual", _check_eigensolver_residual),
        ("chiral_sampler_structure", _check_chiral_sampler_structure),
        ("wishart_trace_mc", _check_wishart_trace_mc),
    ],
    "kernels": [
        ("hermite_contour_oracle", _check_hermite_contour),
        ("laguerre_contour_oracle", _check_laguerre_contour),
        ("chiral_contour_oracle", _check_chiral_contour),
        ("kernel_traces", _check_kernel_traces),
        ("kernel_projection", _check_kernel_projection),
        ("biorthogonality", _check_biorthogonality),
        ("asymptotic_convergence", _check_asymptotic_convergence),
        ("correl_symmetry", _check_correl_symmetry),
    ],
    "jointpdf": [
        ("series_vs_determinant", _check_series_vs_determinant),
        ("green_limits", _check_green_limits),
        ("factorization", _check_factorization),
    ],
    "mc": [
        ("predictor_mc", _check_predictor_mc),
        ("predictor_mc_gamma", _check_predictor_mc_gamma),
    ],
}


def run_verify(suite: str = "all") -> dict:
    """Run the named suite (or all) and return a JSON-serializable report."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {['all'] + sorted(SUITES)}")
    names = sorted(SUITES) if suite == "all" else [suite]
    checks = []
    for sname in names:
        for cname, fn in SUITES[sname]:
            start = time.perf_counter()
            passed, measured, tol, detail = fn()
            seconds = time.perf_counter() - start
            measured, tol = float(measured), float(tol)
            checks.append(CheckResult(sname, cname, bool(passed), measured, tol, detail, seconds,
                                      measured / tol if tol else None))
    report = {
        "suite": suite,
        "passed": all(c.passed for c in checks),
        "n_checks": len(checks),
        "n_failed": sum(not c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }
    return report
