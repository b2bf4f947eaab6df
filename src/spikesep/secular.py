"""Rank-one and chiral rank-two secular equations.

The rank-one solver finds all roots of 1 = mu * sum_i w_i/(lambda - a_i);
between consecutive poles the secular function is strictly monotone, so each
root is bracketed by interlacing, and all roots take dlaed4's middle-way
rational steps together, over arrays.  The chiral rank-two equation is two
such updates of its Hermitian dilation, the second over the first's roots
(Bunch-Nielsen-Sorensen 1978; Gu-Eisenstat 1994).  `SeparationPrediction` is the
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
_U = 2.0**-53  # unit roundoff
_MAX_STEPS = 64  # per rank-one root; bisection takes a bracket of width |lambda| to rounding in 53


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


def _rank_one_roots(a, w, mu):
    """The roots of 1 = mu sum_j w_j/(lambda - a_j) for distinct descending poles a,
    positive weights w and mu > 0, as (origin, tau): root k is a[origin[k]] + tau[k],
    in (a_k, a_{k-1}) for k > 0 and in (a_0, a_0 + mu sum w] for k = 0, up to rounding.

    A root iterates on tau = lambda - a_o, d_j = (a_j - a_o) - tau, from a_o, the
    pole of its bracket nearer the root by one evaluation at the midpoint (a_0 for
    root 0).  dlaed4's middle-way step (R.-C. Li, LAPACK Working Note 89) splits
    g = 1/mu + sum_j w_j/d_j at the pair (a_p, a_{p-1}), p = max(k, 1), and models
    each part by one pole of the pair, matching its value and slope; the model's
    quadratic is solved for the next tau itself, which keeps a root near its origin
    accurate.  Steps against the sign of g fall back to Newton, steps out of the
    bracket to bisection."""
    n = a.size
    total = mu * float(np.sum(w))
    if not math.isfinite(a[0] + 2.0 * total):
        raise OverflowError("the largest root's bracket a_0 + 2 mu sum(weights) overflows")
    if n == 1:
        return np.zeros(1, int), np.array([total])
    origin = np.arange(n)
    split, width = np.maximum(origin, 1), np.concatenate([[total], a[:-1] - a[1:]])
    # root 0 may lie within rounding of its bound a_0 + mu sum w: its bracket is twice as wide
    lo, hi, tau = state = np.stack([0.0 * width, width + width * (origin == 0), 0.5 * width])

    def sums(roots, work):
        d, t = work.reshape(2, roots.size, n)
        np.subtract(a, a[origin[roots], None], out=d)
        d -= tau[roots, None]
        np.divide(w, d, out=t)
        with np.errstate(over="ignore"):  # w/d^2 past a double: `steep` below
            np.divide(t, d, out=d)
        starts = (n * np.arange(roots.size)[:, None] + np.outer(split[roots], [0, 1])).ravel()
        return np.concatenate([np.add.reduceat(x.ravel(), starts).reshape(-1, 2).T for x in (t, d)])

    live = origin.copy()
    for step in range(_MAX_STEPS):
        if not live.size:
            return origin, tau
        phi, psi, dphi, dpsi = _by_blocks(sums, live, 2 * n)
        # a slope past a double (tau within rounding of a pole) gives no model or Newton step
        steep = np.isinf(dphi) | np.isinf(dpsi)
        dphi[steep] = dpsi[steep] = 0.0
        g = 1.0 / mu + psi + phi
        settled = np.abs(g) <= 8.0 * _U * (np.abs(psi) + np.abs(phi) + 1.0 / mu)
        below = g < 0.0
        lo[live[below]], hi[live[~below]] = tau[live[below]], tau[live[~below]]
        if step == 0:  # an interior root above its midpoint iterates from its upper pole
            up = live[below & ~settled & (live > 0)]
            origin[up] -= 1
            state[:, up] -= width[up]
        o, p, t, l, u = origin[live], split[live], tau[live], lo[live], hi[live]
        ep, eq = a[p] - a[o], a[p - 1] - a[o]  # the pair from the origin: one of them is 0
        dp, dq = ep - t, eq - t
        c = g - dp * dpsi - dq * dphi
        sp, sq = dp * (dp * dpsi), dq * (dq * dphi)
        # C + s_p/(e_p - x) + s_q/(e_q - x) = 0 at the next tau x: C x^2 - beta x + gamma = 0
        beta, gamma = c * (ep + eq) + sp + sq, sp * eq + sq * ep
        sd = np.where(live == 0, 1.0, -1.0)  # root 0 lies above both poles of its pair
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            disc = sd * np.sqrt(np.abs(beta * beta - 4.0 * c * gamma))
            new = np.where(sd * beta >= 0, (beta + disc) / (2 * c), 2 * gamma / (beta - disc))
            new = np.where((new - t) * g < 0.0, new, t - g / (dpsi + dphi))
        new = np.where(settled, t, np.where((l < new) & (new < u) & ~steep, new, 0.5 * (l + u)))
        tau[live] = new
        live = live[np.abs(new - t) > 2.0 * _U * np.abs(a[o] + new)]
    raise ArithmeticError(f"{live.size} rank-one roots still moving after {_MAX_STEPS} steps")


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

    origin, tau = _rank_one_roots(a, w, mu) if a.size else (np.empty(0, int), np.empty(0))
    return np.sort(np.concatenate([a[origin] + tau, exact]))[::-1]


def chiral_secular_eigenvalues(
    singulars: Sequence[float],
    u: Optional[Sequence[complex]] = None,
    v: Optional[Sequence[complex]] = None,
    mu: float = 0.0,
    n: Optional[int] = None,
    zero_components: Optional[Sequence[complex]] = None,
) -> np.ndarray:
    """Positive eigenvalues of the rank-two-shifted chiral block matrix, ascending.

    With u and v given: the singular values of X + mu e f^*, where the n x m X
    has singular values lam_j and vectors l_j, r_j, u_j = <e, l_j>/sqrt(2),
    v_j = <f, r_j>/sqrt(2), and the optional `zero_components` are the <e, l_k>
    of X's zero block.  The shift adds (mu/2)(g g^* - h h^*), g, h = (e, +-f), to
    the Hermitian dilation [[0, X], [X^*, 0]], whose eigenvalues are +-lam_j and
    0: a rank-one update on those poles, then one on its roots, with h's
    components on its eigenvectors (diag - lambda_i)^{-1} g (LAPACK's dlaed3).
    With u, v omitted, solves the eigenvector-averaged condition
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

    if mu < 0.0:  # X + mu e f^* = X + |mu| (-e) f^*
        u, mu = -u, -mu
    # components of g, h = E +- F on the eigenvectors of [[0, X], [X^*, 0]]: pairs at
    # +-lam_j, and at 0 the zero block's touched direction (or an exact 0 eigenvalue)
    poles = np.concatenate([lam, -lam, [0.0]])
    g = np.conj(np.concatenate([u + v, u - v, [math.sqrt(zsq)]]))
    h = np.conj(np.concatenate([u - v, u + v, [math.sqrt(zsq)]]))
    # g touches one direction of each repeated pole's eigenspace, the first
    # update's pole; what h keeps off it stays at the pole in the second update
    d, group, copies = np.unique(poles, return_inverse=True, return_counts=True)
    gg = np.bincount(group, np.abs(g) ** 2)
    gh = np.conj(g) * h
    cross = np.bincount(group, gh.real) + 1j * np.bincount(group, gh.imag)
    kept = np.bincount(group, np.abs(h) ** 2)
    touched = gg > 0.0
    kept[touched] = np.maximum(kept[touched] - np.abs(cross[touched]) ** 2 / gg[touched], 0.0)
    rest = copies - touched
    a, w = d[touched][::-1], gg[touched][::-1]
    if not a.size:  # g = 0: u = v = 0 and no zero block
        return lam.copy()
    s = cross[touched][::-1] / np.sqrt(w)  # h on the touched directions
    origin, tau = _rank_one_roots(a, w, 0.5 * mu)

    def project(roots, work):  # y_i = sqrt(w)/(a - lambda_i) to max 1: Re, Im of s.y_i; |y_i|^2
        y, t = work.reshape(2, roots.size, a.size)
        np.subtract(a, a[origin[roots], None], out=y)
        y -= tau[roots, None]
        np.divide(np.sqrt(w), y, out=y)
        y /= np.abs(y, out=t).max(axis=1, keepdims=True)
        return np.stack([np.multiply(y, part, out=t).sum(axis=1)
                         for part in (s.real, s.imag, y)])

    re, im, norm = _by_blocks(project, np.arange(a.size), 2 * a.size)
    poles = np.concatenate([a[origin] + tau, np.repeat(d, rest)])
    weights = np.concatenate([(re * re + im * im) / norm,
                              np.repeat(kept / np.maximum(rest, 1), rest)])
    return secular_eigenvalues(SecularProblem(poles, weights, -0.5 * mu))[m - 1::-1]
