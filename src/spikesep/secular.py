"""Rank-one and chiral rank-two secular equations.

The rank-one solver finds all roots of 1 = mu * sum_i w_i/(lambda - a_i);
between consecutive poles the secular function is strictly monotone, so each
root is bracketed by interlacing, and all brackets are bisected and then
polished by safeguarded Newton together, over arrays.  The chiral rank-two
condition is probed in every inter-pole interval in one pass, and its
sign-change brackets are bisected together.  `SeparationPrediction` is the
record each kernel model's `predictor(spike)` returns; the ensembles
themselves are described once, by the models in `spikesep.kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SecularProblem",
    "SeparationPrediction",
    "secular_eigenvalues",
    "chiral_secular_eigenvalues",
]

# Entries in one block of secular-function evaluations (256 KiB of float64);
# 2 MiB blocks ran no faster and moved perfbench pointwise peak RSS 124.7 -> 128.9 MB.
_BLOCK = 2**15
_TOL = 1e-13  # relative root tolerance of both solvers


@dataclass(frozen=True)
class SecularProblem:
    """diag(a) + mu * w-weighted rank-one update; weights play the role of y_i^2."""

    diag: np.ndarray
    weights: np.ndarray
    coupling: float

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.diag.ndim != 1 or self.diag.shape != self.weights.shape:
            raise ValueError("diag and weights must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.weights))
                and math.isfinite(self.coupling)):
            raise ValueError("diag, weights and coupling must be finite")
        if np.any(self.weights < 0):
            raise ValueError("mixed-sign effective weights are unsupported; weights must be >= 0")


@dataclass(frozen=True)
class SeparationPrediction:
    threshold: float
    above_threshold: bool
    location: Optional[float] = None


def _by_blocks(fn, x, width):
    """fn(x_block, work) over blocks of the points x, with fn's outputs on their
    last axis; `work` is a float buffer of at most _BLOCK entries, shape (block
    points, width), allocated once so that each block does not fault in pages."""
    rows = max(1, _BLOCK // width)
    work = np.empty((min(rows, x.size), width))
    return np.concatenate([fn(x[s:s + rows], work[:min(rows, x.size - s)])
                           for s in range(0, x.size, rows)], axis=-1)


def _solve_brackets(f, f_fp, width, lo, hi):
    """Root in each bracket (lo_k, hi_k) of an increasing f: bisection to 1e-3
    of the bracket, then safeguarded Newton to _TOL, all brackets at once.  f and
    f_fp are `_by_blocks` functions of `width` columns giving f and (f, f')."""
    a, b = lo.copy(), hi.copy()
    gap = b - a
    live = np.arange(a.size)
    while True:
        al, bl = a[live], b[live]
        rounding = 1e-15 * np.maximum(np.maximum(np.abs(al), np.abs(bl)), 1.0)
        live = live[(bl - al > 1e-3 * gap[live]) & (bl - al > rounding)]
        if not live.size:
            break
        mid = 0.5 * (a[live] + b[live])
        below = _by_blocks(f, mid, width) < 0.0
        a[live[below]] = mid[below]
        b[live[~below]] = mid[~below]
    x = 0.5 * (a + b)
    live = np.arange(x.size)
    for _ in range(100):
        if not live.size:
            break
        xl = x[live]
        fx, dfx = _by_blocks(f_fp, xl, width)
        below = fx < 0.0
        al = a[live] = np.where(below, xl, a[live])
        bl = b[live] = np.where(below, b[live], xl)
        ok = (dfx > 0.0) & np.isfinite(dfx)
        step = xl - fx / np.where(ok, dfx, 1.0)
        ok &= (al < step) & (step < bl)
        x[live] = x_new = np.where(ok, step, 0.5 * (al + bl))
        live = live[np.abs(x_new - xl) > _TOL * np.maximum(np.abs(x_new), 1e-300)]
    return x


def secular_eigenvalues(problem: SecularProblem) -> np.ndarray:
    """All eigenvalues of diag(a) + mu w w^T (w_i = sqrt(weights_i)), descending."""
    mu = problem.coupling
    if mu == 0.0:
        return np.sort(problem.diag)[::-1].copy()
    if mu < 0.0:
        mirrored = SecularProblem(-problem.diag, problem.weights, -mu)
        return -secular_eigenvalues(mirrored)[::-1]

    order = np.argsort(problem.diag)[::-1]
    diag = problem.diag[order]
    weights = problem.weights[order]

    # deflation: zero weights leave a_i as an exact eigenvalue; exact repeats
    # merge their weights, keeping multiplicity-1 copies as exact eigenvalues
    # (bincount adds each run's weights in order, as a running sum would)
    a, w = diag[weights > 0.0], weights[weights > 0.0]
    first = np.diff(a, prepend=np.inf) != 0.0
    exact = np.concatenate([diag[weights == 0.0], a[~first]])
    a, w = a[first], np.bincount(np.cumsum(first) - 1, weights=w)

    def f(lam, d):
        return 1.0 - mu * np.sum(np.divide(w, np.subtract.outer(lam, a, out=d), out=d), axis=1)

    def f_fp(lam, d):
        fx = f(lam, d)
        d = np.square(np.subtract.outer(lam, a, out=d), out=d)
        return np.stack([fx, mu * np.sum(np.divide(w, d, out=d), axis=1)])

    roots = np.empty(0)
    if a.size:
        total = mu * float(np.sum(w))
        hi = a[0] + total
        if _by_blocks(f, np.array([hi]), a.size)[0] < 0.0:  # rounding right at the bound
            hi = a[0] + 2.0 * total + 1e-12 * max(1.0, abs(a[0]))
        roots = _solve_brackets(f, f_fp, a.size, a, np.concatenate([[hi], a[:-1]]))
    return np.sort(np.concatenate([roots, exact]))[::-1]


def chiral_secular_eigenvalues(
    singulars: Sequence[float],
    u: Optional[Sequence[complex]] = None,
    v: Optional[Sequence[complex]] = None,
    mu: float = 0.0,
    n: Optional[int] = None,
    zero_components: Optional[Sequence[complex]] = None,
) -> np.ndarray:
    """Positive eigenvalues of the rank-two-shifted chiral block matrix, ascending.

    With u and v given (length m, the eigenvector-sum components paired with the
    +-singular-value pairs) solves det(1 - mu*A(lambda)) = 0 where
        a11 = conj(a22) = sum_j 2 lam_j v_j conj(u_j) / (lambda^2 - lam_j^2)
        a12 = sum_j 2 lambda |v_j|^2 / (lambda^2 - lam_j^2)
        a21 = sum_j 2 lambda |u_j|^2 / (lambda^2 - lam_j^2) + sum_z |z|^2/lambda
    and the optional `zero_components` are the n-m entries paired with the zero
    eigenvalues.  With u, v omitted, solves the eigenvector-averaged condition
    1 = mu * sum_j lambda/(lambda^2 - lam_j^2).
    """
    order = np.argsort(singulars)
    lam = np.asarray(singulars, dtype=float)[order]
    if not (np.all(np.isfinite(lam)) and math.isfinite(mu)):
        raise ValueError("singular values and mu must be finite")
    if np.any(lam < 0):
        raise ValueError("singular values must be positive (signs are implicit)")
    if np.any(lam == 0.0):
        raise ValueError("zero singular values must be deflated before solving")
    m = lam.size
    if n is not None and n < m:
        raise ValueError("need n >= m")
    if mu == 0.0 or m == 0:
        return lam.copy()
    if u is None and v is None:
        # lambda/(lambda^2 - lam_j^2) splits into halves over the poles +-lam_j
        # and the equation is odd, so its m largest roots are the positive ones
        poles = np.concatenate([lam, -lam])
        roots = secular_eigenvalues(SecularProblem(poles, np.ones(2 * m), 0.5 * mu))
        return roots[m - 1::-1]
    if u is None or v is None:
        raise ValueError("provide both u and v, or neither (averaged mode)")
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (m,) or v.shape != (m,):
        raise ValueError("u and v must have one component per singular value")
    u, v = u[order], v[order]
    zsq = 0.0
    if zero_components is not None:
        zc = np.asarray(zero_components, dtype=complex)
        if n is not None and zc.size != n - m:
            raise ValueError("expected one zero-block component per zero eigenvalue")
        zsq = float(np.sum(np.abs(zc) ** 2))
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v)) and math.isfinite(zsq)):
        raise ValueError("u, v and zero_components must be finite")

    lam2 = lam**2
    uv = 2.0 * lam * v * np.conj(u)
    vv = 2.0 * np.abs(v) ** 2
    uu = 2.0 * np.abs(u) ** 2

    # float_power and hypot are libm's pow and hypot, as numpy scalars use: a
    # root then sees the same arithmetic however many points share the call
    def g(x, d):
        d = np.subtract.outer(np.float_power(x, 2.0), lam2, out=d)
        t = 1.0 - mu * np.sum(uv / d, axis=1)
        a12 = x * np.sum(vv / d, axis=1)
        a21 = x * np.sum(uu / d, axis=1) + (zsq / x if zsq else 0.0)
        return np.float_power(np.hypot(t.real, t.imag), 2.0) - mu**2 * a12 * a21

    # Bracket roots by probing each inter-pole interval (rank-two updates can
    # place zero or two roots per interval) plus a tail interval, then bisect
    # every sign change at once, keeping g at each left end.
    probes_per_interval = 64
    scale = mu * (float(np.sum(vv)) + float(np.sum(uu))) + zsq * mu
    upper = math.sqrt(lam2[-1] + abs(scale) * lam[-1] + scale**2) + lam[-1] + 1.0
    edges = np.concatenate([[1e-9 * lam[0]], lam, [upper]])
    pad = 1e-9 * np.diff(edges)
    xs = np.linspace(edges[:-1] + pad, edges[1:] - pad, probes_per_interval, axis=1)
    vals = _by_blocks(g, xs.ravel(), m).reshape(xs.shape)
    left = vals[:, :-1]
    change = left * vals[:, 1:] < 0.0
    a_, b_, g_a = xs[:, :-1][change], xs[:, 1:][change], left[change]
    live = np.arange(a_.size)
    for _ in range(200):
        mid = 0.5 * (a_[live] + b_[live])
        wide = b_[live] - a_[live] > _TOL * np.maximum(np.abs(mid), 1e-300)
        live, mid = live[wide], mid[wide]
        if not live.size:
            break
        g_mid = _by_blocks(g, mid, m)
        lower = g_a[live] * g_mid <= 0.0
        b_[live[lower]] = mid[lower]
        a_[live[~lower]] = mid[~lower]
        g_a[live[~lower]] = g_mid[~lower]
    roots = np.sort(np.concatenate([xs[:, :-1][left == 0.0], 0.5 * (a_ + b_)]))
    if roots.size != m:
        raise ArithmeticError(
            f"bracketing located {roots.size} positive roots, expected {m}; "
            "tighten probing or check inputs"
        )
    return roots

