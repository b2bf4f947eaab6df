"""Rank-one and chiral rank-two secular equations.

The rank-one solver finds all roots of 1 = mu * sum_i w_i/(lambda - a_i);
between consecutive poles the secular function is strictly monotone, so each
root is bracketed by interlacing, located by bisection, and polished with a
safeguarded Newton iteration.  `SeparationPrediction` is the record each
kernel model's `predictor(spike)` returns; the ensembles themselves are
described once, by the models in `spikesep.kernels`.
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
        if np.any(self.weights < 0):
            raise ValueError("mixed-sign effective weights are unsupported; weights must be >= 0")


@dataclass(frozen=True)
class SeparationPrediction:
    threshold: float
    above_threshold: bool
    location: Optional[float] = None


def _solve_bracket(f, fprime, lo, hi, tol):
    """Root of strictly increasing f on (lo, hi): bisection then safeguarded Newton."""
    a, b = lo, hi
    gap = b - a
    # bisection down to a fraction of the bracket, guarding against flat spans
    while b - a > 1e-3 * gap and b - a > 1e-15 * max(abs(a), abs(b), 1.0):
        mid = 0.5 * (a + b)
        if f(mid) < 0.0:
            a = mid
        else:
            b = mid
    x = 0.5 * (a + b)
    for _ in range(100):
        fx = f(x)
        if fx < 0.0:
            a = x
        else:
            b = x
        dfx = fprime(x)
        step_ok = dfx > 0.0 and math.isfinite(dfx)
        x_new = x - fx / dfx if step_ok else 0.5 * (a + b)
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= tol * max(abs(x_new), 1e-300):
            return x_new
        x = x_new
    return x


def secular_eigenvalues(problem: SecularProblem, tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of diag(a) + mu w w^T (w_i = sqrt(weights_i)), descending."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    mu = problem.coupling
    if mu == 0.0:
        return np.sort(problem.diag)[::-1].copy()
    if mu < 0.0:
        mirrored = SecularProblem(-problem.diag, problem.weights, -mu)
        return -secular_eigenvalues(mirrored, tol)[::-1]

    order = np.argsort(problem.diag)[::-1]
    diag = problem.diag[order]
    weights = problem.weights[order]

    # deflation: zero weights leave a_i as an exact eigenvalue; exact repeats
    # merge their weights, keeping multiplicity-1 copies as exact eigenvalues
    exact = list(diag[weights == 0.0])
    diag = diag[weights > 0.0]
    weights = weights[weights > 0.0]
    merged_a, merged_w = [], []
    for a_i, w_i in zip(diag, weights):
        if merged_a and a_i == merged_a[-1]:
            merged_w[-1] += w_i
            exact.append(a_i)
        else:
            merged_a.append(a_i)
            merged_w.append(w_i)
    a = np.array(merged_a)
    w = np.array(merged_w)
    if a.size and np.any(np.diff(a) >= 0):
        raise ValueError("diagonal not strictly decreasing after deflation")

    def f(lam):
        return 1.0 - mu * np.sum(w / (lam - a))

    def fp(lam):
        return mu * np.sum(w / (lam - a) ** 2)

    roots = []
    if a.size:
        total = mu * float(np.sum(w))
        hi = a[0] + total
        if f(hi) < 0.0:  # guard against rounding right at the bound
            hi = a[0] + 2.0 * total + 1e-12 * max(1.0, abs(a[0]))
        roots.append(_solve_bracket(f, fp, a[0], hi, tol))
        for i in range(1, a.size):
            roots.append(_solve_bracket(f, fp, a[i], a[i - 1], tol))
    out = np.array(sorted(roots + exact, reverse=True))
    return out


def _averaged_chiral_roots(singulars, mu, tol):
    """Positive roots of 1 = mu * sum_j lambda/(lambda^2 - lambda_j^2), ascending."""
    lam = np.sort(np.asarray(singulars, dtype=float))
    if np.any(lam < 0):
        raise ValueError("singular values must be nonnegative")
    m = lam.size

    def f(x):
        return mu * np.sum(x / (x**2 - lam**2)) - 1.0

    def fneg(x):  # -f is increasing on each interval (f decreases between poles)
        return -f(x)

    def fnegp(x):
        return mu * np.sum((x**2 + lam**2) / (x**2 - lam**2) ** 2)

    roots = []
    for j in range(m - 1):
        roots.append(_solve_bracket(fneg, fnegp, lam[j], lam[j + 1], tol))
    top = 0.5 * (mu * m + math.sqrt((mu * m) ** 2 + 4.0 * lam[-1] ** 2)) + 1e-12 * max(1.0, lam[-1])
    roots.append(_solve_bracket(fneg, fnegp, lam[-1], top, tol))
    return np.array(roots)


def chiral_secular_eigenvalues(
    singulars: Sequence[float],
    u: Optional[Sequence[complex]] = None,
    v: Optional[Sequence[complex]] = None,
    mu: float = 0.0,
    n: Optional[int] = None,
    tol: float = 1e-13,
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
    lam = np.sort(np.asarray(singulars, dtype=float))
    if np.any(lam <= 0):
        zero_ct = int(np.sum(lam == 0.0))
        if np.any(lam < 0):
            raise ValueError("singular values must be positive (signs are implicit)")
        lam = lam[lam > 0.0]
        if zero_ct:
            raise ValueError("zero singular values must be deflated before solving")
    m = lam.size
    if n is not None and n < m:
        raise ValueError("need n >= m")
    if mu == 0.0:
        return lam.copy()
    if u is None and v is None:
        return _averaged_chiral_roots(lam, mu, tol)
    if u is None or v is None:
        raise ValueError("provide both u and v, or neither (averaged mode)")
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (m,) or v.shape != (m,):
        raise ValueError("u and v must have one component per singular value")
    zsq = 0.0
    if zero_components is not None:
        zc = np.asarray(zero_components, dtype=complex)
        if n is not None and zc.size != n - m:
            raise ValueError("expected one zero-block component per zero eigenvalue")
        zsq = float(np.sum(np.abs(zc) ** 2))

    lam2 = lam**2
    uv = 2.0 * lam * v * np.conj(u)
    vv = 2.0 * np.abs(v) ** 2
    uu = 2.0 * np.abs(u) ** 2

    def g(x):
        d = x**2 - lam2
        a11 = np.sum(uv / d)
        a12 = x * np.sum(vv / d)
        a21 = x * np.sum(uu / d) + (zsq / x if zsq else 0.0)
        return abs(1.0 - mu * a11) ** 2 - mu**2 * a12 * a21

    # Bracket roots by probing each inter-pole interval (rank-two updates can
    # place zero or two roots per interval) plus a tail interval.
    probes_per_interval = 64
    scale = mu * (float(np.sum(vv)) + float(np.sum(uu))) + zsq * mu
    upper = math.sqrt(lam2[-1] + abs(scale) * lam[-1] + scale**2) + lam[-1] + 1.0
    edges = np.concatenate([[1e-9 * lam[0]], lam, [upper]])
    roots = []
    for k in range(m + 1):
        lo, hi = edges[k], edges[k + 1]
        pad = 1e-9 * (hi - lo)
        xs = np.linspace(lo + pad, hi - pad, probes_per_interval)
        vals = np.array([g(x) for x in xs])
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                roots.append(xs[i])
            elif vals[i] * vals[i + 1] < 0.0:
                a_, b_ = xs[i], xs[i + 1]
                for _ in range(200):
                    mid = 0.5 * (a_ + b_)
                    if b_ - a_ <= tol * max(abs(mid), 1e-300):
                        break
                    if g(a_) * g(mid) <= 0.0:
                        b_ = mid
                    else:
                        a_ = mid
                roots.append(0.5 * (a_ + b_))
    roots = np.array(sorted(roots))
    if roots.size != m:
        raise ArithmeticError(
            f"bracketing located {roots.size} positive roots, expected {m}; "
            "tighten probing or check inputs"
        )
    return roots

