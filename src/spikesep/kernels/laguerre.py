"""LUE kernel, incomplete multiple Laguerre functions, spiked-LUE kernel.

The spiked kernel (inverse-covariance spike btilde, rank r) is
    K_m(x, y) = K_{m-r}^{alpha+r}(x, y) + sum_{j=1}^r Ltilde_j(x) Lambda_j(y)
with the incomplete families defined by contour integrals of
    e^{-xz}(1+z)^{m+alpha} / (z^{m-r} (z-(btilde-1))^j)   around {0, btilde-1}
    e^{xw} w^{m-r} (w-(btilde-1))^{j-1} / (1+w)^{m+alpha} around {-1}.
All closed forms reduce to coefficient lines T_q(x) = [z^q] e^{-xz}(1+z)^M,
which one three-term recurrence supplies for every needed (degree, parameter)
pair; accumulation is in signed log space throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from ..ensembles import spiked_gram
from ..logspace import SignedLogValue, slog_sum_columns
from ..secular import SeparationPrediction
from ..specialfn import _read_only, laguerre_line_signlog, laguerre_weighted_signlog
from .common import half_line, pairwise, sampled_rows
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
    "SpikedLUE",
    "kernel_laguerre",
    "incomplete_laguerre",
    "kernel_spiked_lue",
    "density_spiked_lue",
    "lue_spike_term",
]


@dataclass(frozen=True)
class SpikedLUE:
    """m x m LUE with parameter alpha and a rank-r inverse-covariance spike btilde.

    `regime` names the large-m limit the predictor takes: "fixed" holds
    n - m = alpha fixed, "proportional" holds n/m = (m + alpha)/m fixed.  The
    density does not depend on it.
    """

    m: int
    alpha: float
    r: int
    btilde: float
    regime: str = "fixed"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("matrix size must be positive")
        if not -1 < self.alpha < math.inf:  # NaN fails this too
            raise ValueError("need finite alpha > -1")
        if not 0 <= self.r <= self.m:
            raise ValueError("rank must satisfy 0 <= r <= m")
        if not 0 < self.btilde < math.inf:
            raise ValueError("inverse-covariance spike btilde must be finite and > 0")
        if self.regime not in ("fixed", "proportional"):
            raise ValueError("regime must be 'fixed' or 'proportional'")
        if self.regime == "proportional" and self.alpha < 0:
            raise ValueError("the proportional regime needs n >= m, alpha >= 0")

    @property
    def mass(self) -> float:
        return float(self.m)

    @property
    def bulk_edge(self) -> float:
        return 4.0 * self.m

    @property
    def tag(self) -> str:
        return f"spiked-lue m={self.m} alpha={self.alpha:g} r={self.r} btilde={self.btilde:g}"

    def density(self, x):
        return density_spiked_lue(self, x)

    def respike(self, spike: float) -> SpikedLUE:
        """Scan model with btilde = spike."""
        return replace(self, btilde=spike)

    def predictor(self, spike: float) -> SeparationPrediction:
        """Large-m separation at btilde = spike, covariance spike s = 1/spike
        (Baik-Ben Arous-Peche): past s = 2 at m s^2/(s - 1) in the fixed
        regime, past s = 1 + 1/sqrt(gamma) at n s (1 + (1/gamma)/(s - 1)) in
        the proportional one, gamma = n/m."""
        if not 0 < spike < math.inf:  # NaN fails this too
            raise ValueError("inverse-covariance spike must be finite and > 0")
        s = 1.0 / spike
        if self.regime == "fixed":
            if s > 2.0:
                return SeparationPrediction(2.0, True, self.m * s**2 / (s - 1.0))
            return SeparationPrediction(2.0, False)
        gamma = (self.m + self.alpha) / self.m
        thr = 1.0 + 1.0 / math.sqrt(gamma)
        if s > thr:
            n = gamma * self.m
            return SeparationPrediction(thr, True, n * s * (1.0 + (1.0 / gamma) / (s - 1.0)))
        return SeparationPrediction(thr, False)

    def trial_plan(self, beta: int):
        """(dimension, build(source) -> (..., dim, dim) matrices, post(eigenvalues)
        -> eigenvalues); source is a Generator or a `SeedStream.trials` batch."""
        n = sampled_rows(self.m, self.alpha)
        sqrt_sigma = np.ones(self.m)
        sqrt_sigma[: self.r] = math.sqrt(1.0 / self.btilde)
        return self.m, lambda source: spiked_gram(source, n, sqrt_sigma, beta), lambda e: e

    def _weighted(self, x):
        """The stack the bulk and the families share: phi_p^alpha(x), p < m, at
        rank 0; else the lines T_q^{(M)}(x) | T_q^{(M-1)}(x), M = m + alpha, as
        one line call on [x; x]."""
        if not np.all((x > 0) & (x < np.inf)):  # NaN fails this too
            raise ValueError("evaluate the LUE at x > 0, x finite")
        if self.r == 0:
            return laguerre_weighted_signlog(self.m, self.alpha, x)
        big_m = np.repeat([self.m + self.alpha, self.m + self.alpha - 1.0], x.size)
        return laguerre_line_signlog(self.m, big_m, np.concatenate([x, x]))

    def _bulk(self, points, stack, npts):
        """K_n^a at the npts pairs, n = m - r, a = alpha + r: at rank 0 the sum
        over phi_p^alpha, else Christoffel-Darboux in the lines' entries
        (T_q^{(M)} = L_q^{(M-q)}, N = n!/Gamma(n+a)), each a two-term sum:
            K(x, x) = N x^a e^{-x} [T^{(M-1)}_{n-1} T^{(M)}_{n-1} - T^{(M)}_n T^{(M-1)}_{n-2}],
            K(x, y) = -N (xy)^{a/2} e^{-(x+y)/2}
                      [T^{(M)}_n(x) T^{(M-1)}_{n-1}(y) - T^{(M-1)}_{n-1}(x) T^{(M)}_n(y)] / (x - y),
        the first wherever x == y.  The second's bracket cancels as y -> x and
        past the soft edge, and takes in the lines' log rounding, about
        u (|log| + n) (u the unit roundoff): its error against
        sqrt(K(x, x) K(y, y)) grows like 1/|x - y|.  Where that predicted
        error exceeds 1e-11 (at m = 500, alpha = 0.5: pairs closer than 0.03
        to 0.1 in the bulk, a few units near the edge, every pair past it)
        the sum over phi_p^a, from a second recurrence on those pairs alone,
        replaces it.
        """
        n, a = self.m - self.r, self.alpha + self.r
        if self.r == 0 or n == 0:
            return bulk_sum(stack, n, npts)
        signs, logs = stack
        k = points.size  # T^{(M)} in the first k columns, T^{(M-1)} in the next k
        x, y = points[:npts], points[k - npts :]  # y is x on the diagonal

        def entry(shift, q, cols):
            """(sign, log) of T_q^{(M - shift)} at the point columns cols; T_{-1} = 0."""
            if q < 0:
                return np.zeros(cols.size, dtype=np.int8), np.full(cols.size, -np.inf)
            return signs[q, cols + shift * k], logs[q, cols + shift * k]

        def cross(f, g, u, v):
            """(sign, log) of f g - u v from (sign, log) pairs, and the log of its larger term."""
            first, second = f[1] + g[1], u[1] + v[1]
            sign, log = slog_sum_columns(np.array([f[0] * g[0], -(u[0] * v[0])]),
                                         np.array([first, second]))
            return sign, log, np.maximum(first, second)

        log_norm = gammaln(n + 1.0) - gammaln(n + a)
        every = np.arange(k)  # the diagonal bracket at x and, for pairs, at y
        d_sign, d_log, d_peak = cross(entry(1, n - 1, every), entry(0, n - 1, every),
                                      entry(0, n, every), entry(1, n - 2, every))
        out_sign, out_log = d_sign[:npts], d_log[:npts] + (log_norm + a * np.log(x) - x)
        off = np.flatnonzero(x != y)
        xs, ys, at_y = x[off], y[off], off + (k - npts)
        sg, lg, peak = cross(entry(0, n, off), entry(1, n - 1, at_y), entry(1, n - 1, off),
                             entry(0, n, at_y))
        out_sign[off] = np.where(xs > ys, -sg, sg)
        log_gap = np.log(np.abs(xs - ys))
        weight = log_norm + 0.5 * a * (np.log(xs) + np.log(ys)) - 0.5 * (xs + ys)
        out_log[off] = lg + weight - log_gap
        # the rounding of the bracket's larger term or of the diagonal brackets'
        # (the envelope where a line vanishes), over sqrt(K(x, x) K(y, y))
        big = np.maximum(peak, 0.5 * (d_peak[off] + d_peak[at_y]))
        loss = (big + np.log(np.finfo(float).eps * (np.abs(big) + n)) - log_gap
                - 0.5 * (d_log[off] + d_log[at_y]))
        near = off[~(loss <= math.log(1e-11))]  # NaN routes too
        if near.size:
            phi = laguerre_weighted_signlog(n, a, np.concatenate([x[near], y[near]]))
            out_sign[near], out_log[near] = bulk_sum(phi, n, near.size)
        return out_sign, out_log

    def families(self, x, stack=None):
        """Sign/log stacks (r, npts) of Ltilde_j(x) and Lambda_j(x), r >= 1,
        unconjugated, from the two line halves of `stack` = `_weighted(x)`
        (built here when not given)."""
        m, alpha, r, btilde = self.m, self.alpha, self.r, self.btilde
        x = np.atleast_1d(np.asarray(x, dtype=float))
        stack = self._weighted(x) if stack is None else stack
        signs, logs = stack
        npts = x.size
        q0 = m - r
        eps = SignedLogValue.from_float(btilde - 1.0)
        big_m = m + alpha
        logx = np.log(x)

        shift = x * (btilde - 1.0)

        def residue_at_eps(j):
            i, base, sign = _residue_terms(j, q0, big_m, btilde)
            return np.repeat(sign, npts, axis=1), base[:, None] - shift + i[:, None] * logx

        def grow(cols, rows):
            return _t_line(*stack.grow(cols, rows))

        t_line = _t_line(signs[:, :npts], logs[:, :npts])
        tsign, tlog = completing_family(t_line, grow, q0, r, eps, residue_at_eps)
        # Lambda_j's line: q!/Gamma(M) x^{alpha+r-1-l} e^{-x} times the line with
        # parameter sum M-1
        pline_s, pline_l = signs[:, npts:], logs[:, npts:]
        log_fact = gammaln(np.arange(m) + 1.0)
        log_gm = gammaln(big_m)
        x_power = alpha + r - 1 - (np.arange(m) - q0)
        s_line = (
            pline_s,
            lambda q, log_binom, log_power: pline_l[q]
            + (log_binom + log_fact[q] - log_gm + log_power)[:, None]
            - x
            + x_power[q][:, None] * logx,
        )
        lsign, llog = plain_family(s_line, q0, r, eps)
        return tsign, tlog, lsign, llog


@functools.lru_cache(maxsize=64)
def _residue_terms(j, q0, big_m, btilde):
    """Row j's terms of the residue at btilde - 1, a triple Leibniz rule over
    e^{-x z}, (1+z)^M, z^{-q0}, read-only: each term's power i of x, the
    x-free part of its log and its sign as a column."""
    eps = SignedLogValue.from_float(btilde - 1.0)
    i, k, l_, log_multinomial = _leibniz_terms(j)
    base = (
        log_multinomial
        + gammaln(big_m + 1.0)
        - gammaln(big_m + 1.0 - k)
        + (big_m - k) * math.log(btilde)
        + rising_log(q0, l_)
        - (q0 + l_) * eps.log_magnitude
    )
    odd = (i + l_ + (q0 + l_) * (eps.sign < 0)) % 2
    return _read_only(i, base, np.where(odd, -1, 1).astype(np.int8)[:, None])


def _t_line(signs, logs):
    """Ltilde_j's line: T_q^{(M)} itself."""

    def term(q, log_binom, log_power):
        out = logs[q]
        out += (log_binom + log_power)[:, None]
        return out

    return signs, term


def kernel_laguerre(n: int, a: float, x, y):
    """Symmetrized Laguerre kernel sum_{p<n} phi_p(x) phi_p(y).

    Same diagonal and correlation determinants as the one-sidedly weighted
    y^a e^{-y} form (they differ by the conjugation (y/x)^{a/2} e^{(x-y)/2}).
    """
    if n < 1:
        raise ValueError("order must be positive")
    model = SpikedLUE(n, a, 0, 1.0)  # rank 0: the bulk alone

    def evaluate(xs, ys):
        if not (np.all(xs >= 0) and np.all(ys >= 0)):  # NaN fails this too
            raise ValueError("Laguerre kernel arguments must be >= 0")
        if a < 0 and not (np.all(xs > 0) and np.all(ys > 0)):
            raise ValueError("x = 0 needs a >= 0 (phi_p(0) diverges for a < 0)")
        # phi_p(0) is 0 (a > 0) or finite (a = 0); 1e-300 stands in for it
        return spiked_values(model, np.maximum(xs, 1e-300), np.maximum(ys, 1e-300))

    return pairwise(evaluate, x, y)


def incomplete_laguerre(
    kind: str, j: int, x: float, m: int, alpha: float, r: int, btilde: float
) -> SignedLogValue:
    """Ltilde_j(x) (kind='tilde') or Lambda_j(x) (kind='plain') as a SignedLogValue."""
    return family_value(SpikedLUE(m, alpha, r, btilde), ("tilde", "plain"), kind, j, x)


def density_spiked_lue(model: SpikedLUE, x):
    """Eigenvalue density K_m(x, x) on a grid; x = 0 allowed for alpha > 0."""
    return half_line(lambda xp: spiked_values(model, xp), x, zero_ok=model.alpha > 0)


def lue_spike_term(model: SpikedLUE, x, y):
    """Raw sum_j Ltilde_j(x) Lambda_j(y), pointwise like the kernel."""
    return pairwise(lambda xs, ys: spiked_values(model, xs, ys, bulk=False), x, y)


def kernel_spiked_lue(model: SpikedLUE, x, y):
    """Spiked-LUE kernel in the symmetric (weight-conjugated) convention.

    The spike term is conjugated by (x/y)^{(alpha+r)/2} e^{-(x-y)/2} so that it
    shares the bulk part's symmetric weighting; diagonal values and all
    correlation determinants are unchanged.  Pointwise over the broadcast of
    x and y; scalars give a float.
    """
    a_bulk = model.alpha + model.r

    def evaluate(xs, ys):
        if not (np.all(xs > 0) and np.all(ys > 0)):  # NaN fails this too
            raise ValueError("kernel arguments must be > 0")
        wx = 0.5 * a_bulk * np.log(xs) - 0.5 * xs
        wy = -0.5 * a_bulk * np.log(ys) + 0.5 * ys
        return spiked_values(model, xs, ys, wx, wy)

    return pairwise(evaluate, x, y)
