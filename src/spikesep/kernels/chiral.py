"""Shifted-chiral kernel: the p_k / q_k biorthogonal pair and densities.

In the squared variable u = lambda^2 the kernel is
    K_m(u, v) = K_{m-r}^alpha(u, v) + sum_{k=1}^r p_k(u) q_k(v)
with
    p_k(u) = e^u/Gamma(a+1) * int_0^inf t^{m+a-r} (t+c^2)^{k-1} e^{-t} 0F1(a+1; -ut) dt
    q_k(u) = u^a e^{-u}/Gamma(a+1) * contour integral of e^v 0F1(a+1; -uv)/(v^{m-r}(v+c^2)^k)
             around the poles {0, -c^2}.
The density of the positive eigenvalues is rho(x) = 2x K_m(x^2, x^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ..ensembles import shifted_gram
from ..logspace import SignedLogValue
from ..secular import SeparationPrediction
from ..specialfn import _read_only, laguerre_weighted_signlog, log_0f1
from .common import half_line, pairwise, sampled_rows, shift_prediction
from .hermite import kernel_gue
from .twopole import (
    _leibniz_terms,
    bulk_sum,
    completing_family,
    family_value,
    plain_family,
    rising_log,
    spiked_values,
)

__all__ = [
    "ShiftedChiral",
    "chiral_pq",
    "chiral_spike_term",
    "kernel_shifted_chiral",
    "density_shifted_chiral",
    "chiral_asymptotic_pq",
]


@dataclass(frozen=True)
class ShiftedChiral:
    """Chiral ensemble of an (m + alpha) x m Gaussian plus a rank-r singular shift c."""

    m: int
    alpha: float
    r: int
    c: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("matrix size must be positive")
        if not -1 < self.alpha < math.inf:  # NaN fails this too
            raise ValueError("need finite alpha > -1")
        if not 0 <= self.r <= self.m:
            raise ValueError("rank must satisfy 0 <= r <= m")
        if not 0 <= self.c < math.inf:
            raise ValueError("shift must be finite and nonnegative")

    @property
    def mass(self) -> float:
        return float(self.m)

    @property
    def bulk_edge(self) -> float:
        return 2.0 * math.sqrt(self.m)

    @property
    def tag(self) -> str:
        return f"shifted-chiral m={self.m} alpha={self.alpha:g} r={self.r} c={self.c:g}"

    def density(self, x):
        return density_shifted_chiral(self, x)

    def respike(self, spike: float) -> ShiftedChiral:
        """Scan model at `spike` threshold units (shift spike*J/2; rank 0 at spike 0)."""
        if not spike >= 0:  # NaN fails this too
            raise ValueError("shift strength must be >= 0")
        if spike > 0:
            return ShiftedChiral(self.m, self.alpha, self.r, spike * self.bulk_edge / 2.0)
        return ShiftedChiral(self.m, self.alpha, 0, 0.0)

    def predictor(self, spike: float) -> SeparationPrediction:
        """Large-m separation of a singular shift of `spike` threshold units (shift spike*J/2)."""
        return shift_prediction(self.bulk_edge, spike)

    def trial_plan(self, beta: int):
        """(dimension, build(source) -> (..., dim, dim) Gram matrices, post ->
        singular values); source is a Generator or a `SeedStream.trials` batch."""
        n = sampled_rows(self.m, self.alpha)
        spikes = np.full(self.r, self.c)
        return (self.m, lambda source: shifted_gram(source, n, self.m, spikes, beta),
                lambda e: np.sqrt(np.clip(e, 0.0, None)))

    def _weighted(self, x):
        """phi_p^alpha(x), p < m: the rows the bulk and the families share."""
        if not np.all((x > 0) & (x < np.inf)):  # NaN fails this too
            raise ValueError("evaluate the p/q families at x > 0, x finite")
        return laguerre_weighted_signlog(self.m, self.alpha, x)

    def _bulk(self, points, stack, npts):
        """K_{m-r}^alpha at the npts pairs: the first m - r rows of the stack."""
        return bulk_sum(stack, self.m - self.r, npts)

    def families(self, x, stack=None):
        """Sign/log stacks (r, npts) of p_k(x) and q_k(x) over a grid (x > 0),
        from `stack` = `_weighted(x)` (built here when not given)."""
        m, alpha, r, c = self.m, self.alpha, self.r, self.c
        x = np.atleast_1d(np.asarray(x, dtype=float))
        npts = x.size
        q0 = m - r
        csq = c * c
        eps = SignedLogValue.from_log(-1, 2.0 * math.log(c)) if c > 0 else SignedLogValue.zero()
        logx = np.log(x)
        wlog = alpha * logx - x  # x^alpha e^{-x}
        stack = self._weighted(x) if stack is None else stack
        s_line, t_line = _lines(x, stack, alpha)

        # residue at -c^2: triple Leibniz over e^v, 0F1(a+1;-xv), v^{-q0}
        f1log = log_0f1(alpha + 1.0 + np.arange(r)[:, None], x * csq)

        def residue_at_eps(k):
            i, base, sign = _residue_terms(k, q0, alpha, c)
            return np.repeat(sign, npts, axis=1), base[:, None] + i[:, None] * logx + f1log[i] + wlog

        def grow(cols, rows):
            return _lines(x[cols], stack.grow(cols, rows), alpha, m)[1]

        psign, plog = plain_family(s_line, q0, r, eps)
        qsign, qlog = completing_family(t_line, grow, q0, r, eps, residue_at_eps)
        return psign, plog, qsign, qlog


@functools.lru_cache(maxsize=64)
def _residue_terms(k, q0, alpha, c):
    """Row k's terms of the residue at -c^2, a triple Leibniz rule over e^v,
    0F1(a+1; -xv), v^{-q0}, read-only: each term's power i of x (and index
    of 0F1(a+1+i)), the x-free part of its log and its sign as a column."""
    i, l_, _, log_multinomial = _leibniz_terms(k)
    poch_a = gammaln(alpha + 1.0 + i) - gammaln(alpha + 1.0)
    base = (
        log_multinomial
        - poch_a
        - gammaln(alpha + 1.0)
        + rising_log(q0, l_)
        - c * c
        - 2.0 * (q0 + l_) * math.log(c)
    )
    return _read_only(i, base, np.where((i + q0) % 2, -1, 1).astype(np.int8)[:, None])


def _lines(x, stack, alpha, first=0):
    """p_k's line q! L^alpha_q(x) and q_k's line x^alpha e^{-x} L^alpha_q(x) /
    Gamma(q+alpha+1) on the stack's rows of phi_q^alpha(x), q = first,
    first + 1, ..."""
    ls, wl = stack
    logx = np.log(x)
    qs = np.arange(first, first + ls.shape[0])
    log_fact = gammaln(qs + 1.0)
    # plain L_q^alpha = phi_q x^{-alpha/2} e^{x/2} sqrt(Gamma(q+alpha+1)/q!)
    adj = 0.5 * (gammaln(qs + alpha + 1.0) - log_fact)
    ll = wl + adj[:, None] - 0.5 * alpha * logx[None, :] + 0.5 * x[None, :]
    wlog = alpha * logx - x
    log_gamma_a = gammaln(qs + 1.0 + alpha)
    s_line = (
        ls,
        lambda q, log_binom, log_power: ll[q] + (log_binom + log_fact[q] + log_power)[:, None],
    )
    t_line = (
        ls,
        lambda q, log_binom, log_power: ll[q] + wlog
        + (log_binom + log_power - log_gamma_a[q])[:, None],
    )
    return s_line, t_line


def chiral_pq(kind: str, k: int, x: float, m: int, alpha: float, r: int, c: float) -> SignedLogValue:
    """p_k(x) (kind='p') or q_k(x) (kind='q') as a SignedLogValue; x is the squared variable."""
    return family_value(ShiftedChiral(m, alpha, r, c), ("p", "q"), kind, k, x)


def chiral_spike_term(model: ShiftedChiral, x, y):
    """Raw sum_k p_k(x) q_k(y) in the squared variable, pointwise like the kernel."""
    return pairwise(lambda xs, ys: spiked_values(model, xs, ys, bulk=False), x, y)


def kernel_shifted_chiral(model: ShiftedChiral, x, y):
    """K_m(x^2, y^2) for positive-eigenvalue arguments x, y > 0 (symmetric convention).

    Pointwise over the broadcast of x and y; scalars give a float.
    """

    def evaluate(xs, ys):
        if not np.all((xs > 0) & (xs < np.inf) & (ys > 0) & (ys < np.inf)):  # NaN fails this too
            raise ValueError("kernel arguments must be finite and > 0")
        u, v = xs * xs, ys * ys
        wu = 0.5 * model.alpha * np.log(u) - 0.5 * u
        wv = -0.5 * model.alpha * np.log(v) + 0.5 * v
        return spiked_values(model, u, v, wu, wv)

    return pairwise(evaluate, x, y)


def density_shifted_chiral(model: ShiftedChiral, x):
    """Density of the positive eigenvalues, rho(x) = 2x K_m(x^2, x^2)."""
    return half_line(lambda xp: 2.0 * xp * spiked_values(model, xp * xp), x)


def chiral_asymptotic_pq(r: int, c: float, x: float, y: float) -> float:
    """Large-shift limit of the spike term (squared-variable arguments):

    e^{(sqrt(x)-c)^2/2 - (sqrt(y)-c)^2/2} K_r^GUE(sqrt(x)-c, sqrt(y)-c) / (2c).
    """
    if c <= 0:
        raise ValueError("asymptotic form needs c > 0")
    if x < 0 or y < 0:
        raise ValueError("arguments are squared eigenvalues, must be >= 0")
    u = math.sqrt(x) - c
    v = math.sqrt(y) - c
    val = kernel_gue(r, u, v)
    if val == 0.0:
        return 0.0
    lg = 0.5 * (u * u - v * v) + math.log(abs(val)) - math.log(2.0 * c)
    if lg > 709.0:
        raise OverflowError("asymptotic kernel overflows at these arguments")
    return math.copysign(math.exp(lg), val)
