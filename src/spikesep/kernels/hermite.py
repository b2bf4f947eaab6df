"""GUE kernel, incomplete Hermite functions, and the shifted-GUE kernel.

The shifted kernel is
    K_N(x, y) = K_{N-r}^GUE(x, y) + sum_{j=1}^r Gtilde_j(x) Gamma_j(y)
with Gtilde_j / Gamma_j defined by contour integrals over
    e^{-xz - z^2/4} / (z^{N-r} (z+2c)^j)   and   e^{yw + w^2/4} w^{N-r} (w+2c)^{j-1}.
Both reduce to finite Hermite sums; every sum is accumulated in signed log
space so that the e^{2cx - c^2}-sized factors never touch a native double
until they are paired against their ~1/sqrt(N!) partners.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ..ensembles import shifted_hermitian
from ..logspace import SignedLogValue
from ..secular import SeparationPrediction
from ..specialfn import _raw_hermite_signlog, _read_only, hermite_weighted_signlog
from .common import pairwise, shift_prediction
from .twopole import (
    bulk_sum,
    completing_family,
    family_value,
    plain_family,
    rising_log,
    spiked_values,
)

__all__ = [
    "ShiftedGUE",
    "kernel_gue",
    "incomplete_hermite",
    "kernel_shifted_gue",
    "density_shifted_gue",
    "spike_term_shifted_gue",
    "kernel_shifted_gue_asymptotic",
    "correl_n",
]

_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class ShiftedGUE:
    """n x n GUE plus a rank-r mean shift c on the last r diagonal entries."""

    n: int
    r: int
    c: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be positive")
        if not 0 <= self.r <= self.n:
            raise ValueError("rank must satisfy 0 <= r <= n")
        if not 0 <= self.c < math.inf:  # NaN fails this too
            raise ValueError("shift must be finite and nonnegative")

    @property
    def mass(self) -> float:
        return float(self.n)

    @property
    def bulk_edge(self) -> float:
        return math.sqrt(2.0 * self.n)

    @property
    def tag(self) -> str:
        return f"shifted-gue n={self.n} r={self.r} c={self.c:g}"

    def density(self, x):
        return density_shifted_gue(self, x)

    def respike(self, spike: float) -> ShiftedGUE:
        """Scan model at `spike` threshold units (shift spike*J/2; rank 0 at spike 0)."""
        if not spike >= 0:  # NaN fails this too
            raise ValueError("shift strength must be >= 0")
        if spike > 0:
            return ShiftedGUE(self.n, self.r, spike * self.bulk_edge / 2.0)
        return ShiftedGUE(self.n, 0, 0.0)

    def predictor(self, spike: float) -> SeparationPrediction:
        """Large-n separation of a mean shift of `spike` threshold units (shift spike*J/2)."""
        return shift_prediction(self.bulk_edge, spike)

    def trial_plan(self, beta: int):
        """(dimension, build(source) -> (..., dim, dim) matrices, post(eigenvalues)
        -> eigenvalues); source is a Generator or a `SeedStream.trials` batch."""
        spikes = np.full(self.r, self.c)
        return self.n, lambda source: shifted_hermitian(source, self.n, spikes, beta), lambda e: e

    def _weighted(self, x):
        """psi_p(x), p < n: the rows the bulk and the families share."""
        if not np.all(np.isfinite(x)):
            raise ValueError("evaluate the GUE at finite x")
        return hermite_weighted_signlog(self.n, x)

    def _bulk(self, points, stack, npts):
        """K_{n-r}^GUE at the npts pairs: the first n - r rows of the stack."""
        return bulk_sum(stack, self.n - self.r, npts)

    def families(self, x, stack=None):
        """Sign/log stacks (r, npts) of Gtilde_j(x) and Gamma_j(x), unconjugated,
        from `stack` = `_weighted(x)` (built here when not given)."""
        n, r, c = self.n, self.r, self.c
        x = np.atleast_1d(np.asarray(x, dtype=float))
        q0 = n - r
        eps = SignedLogValue.from_float(-2.0 * c)
        stack = self._weighted(x) if stack is None else stack
        t_line, s_line = _lines(x, stack)

        # residue at -2c: e^{2cx - c^2} sum_k coef(k) H_k(x - c), k < r
        hsign, hlog = _raw_hermite_signlog(r, x - c)
        expo = 2.0 * c * x - c * c

        def residue_at_eps(j):
            base, sign = _residue_terms(j, q0, eps.log_magnitude)
            return hsign[:j] * sign, expo + base[:, None] + hlog[:j]

        def grow(cols, rows):
            return _lines(x[cols], stack.grow(cols, rows), n)[0]

        tsign, tlog = completing_family(t_line, grow, q0, r, eps, residue_at_eps)
        gsign, glog = plain_family(s_line, q0, r, eps)
        return tsign, tlog, gsign, glog


@functools.lru_cache(maxsize=64)
def _residue_terms(j, q0, log_eps):
    """Row j's terms k < j of the residue at -2c, read-only: the x-free part of
    each log and the sign (-1)^(q0+k) as a column."""
    k = np.arange(j)
    l_ = j - 1 - k
    base = (
        -k * math.log(2.0)
        - gammaln(k + 1.0)
        - gammaln(l_ + 1.0)
        + rising_log(q0, l_)
        - (q0 + l_) * log_eps
    )
    return _read_only(base, np.where((q0 + k) % 2, -1, 1).astype(np.int8)[:, None])


def _lines(x, stack, first=0):
    """The coefficient lines (T_q, S_q) on the stack's rows of psi_q(x),
    q = first, first + 1, ..., with the e^{-x^2/2} weight stripped back off:
    T_q = A_q = (-1)^q H_q(x)/(2^q q!),  S_q = (-1)^q e^{-x^2} H_q(x)/sqrt(pi),
    using H_q(x) = psi_q(x) e^{x^2/2} pi^{1/4} 2^{q/2} sqrt(q!)."""
    psign, plog = stack
    x2half = 0.5 * x * x
    qs = np.arange(first, first + psign.shape[0])
    signs = psign * np.where(qs % 2, -1, 1).astype(np.int8)[:, None]
    half_lgam = 0.5 * gammaln(qs + 1.0)
    coef_log = 0.25 * _LOG_PI - qs * (0.5 * math.log(2.0)) - half_lgam
    s_coef = 0.5 * qs * math.log(2.0)
    # term(q, ...) -> (k, npts); per-degree scalars enter as a column
    t_line = (
        signs,
        lambda q, log_binom, log_power: plog[q] + x2half + coef_log[q][:, None]
        + (log_binom + log_power)[:, None],
    )
    s_line = (
        signs,
        lambda q, log_binom, log_power: plog[q] - x2half + s_coef[q][:, None]
        + half_lgam[q][:, None] - 0.25 * _LOG_PI + (log_binom + log_power)[:, None],
    )
    return t_line, s_line


def kernel_gue(n: int, x, y):
    """K_n^GUE(x,y) = sum_{p<n} psi_p(x) psi_p(y) (weighted-Hermite form): the
    rank-0 shifted GUE."""
    if n < 1:
        raise ValueError("order must be positive")
    model = ShiftedGUE(n, 0, 0.0)
    return pairwise(lambda xs, ys: spiked_values(model, xs, ys), x, y)


def incomplete_hermite(kind: str, j: int, x: float, n: int, r: int, c: float) -> SignedLogValue:
    """Gtilde_j(x) (kind='tilde') or Gamma_j(x) (kind='plain') as a SignedLogValue."""
    return family_value(ShiftedGUE(n, r, c), ("tilde", "plain"), kind, j, x)


def density_shifted_gue(model: ShiftedGUE, x):
    """Eigenvalue density K_N(x, x) on a grid (vectorized)."""
    x = np.asarray(x, dtype=float)
    out = spiked_values(model, x.ravel())
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def kernel_shifted_gue(model: ShiftedGUE, x, y):
    """Shifted-GUE kernel in the symmetric (Gaussian-conjugated) convention.

    Conjugating the spike term by e^{-x^2/2}/e^{-y^2/2} leaves the diagonal and
    all correlation determinants unchanged and makes the kernel a genuine
    projection, matching the K^GUE part's symmetric weighting.  Pointwise
    over the broadcast of x and y; scalars give a float.
    """
    return pairwise(lambda xs, ys: spiked_values(model, xs, ys, -0.5 * xs * xs, 0.5 * ys * ys), x, y)


def spike_term_shifted_gue(model: ShiftedGUE, x, y):
    """Raw sum_j Gtilde_j(x) Gamma_j(y) (no conjugation), pointwise like the kernel."""
    return pairwise(lambda xs, ys: spiked_values(model, xs, ys, bulk=False), x, y)


def kernel_shifted_gue_asymptotic(r: int, c: float, x: float, y: float) -> float:
    """Large-shift limit of the spike term: e^{2c(x-y)} K_r^GUE(x-c, y-c)."""
    if c <= 0:
        raise ValueError("asymptotic form needs c > 0")
    val = kernel_gue(r, x - c, y - c)
    if val == 0.0:
        return 0.0
    lg = 2.0 * c * (x - y) + math.log(abs(val))
    if lg > 709.0:
        raise OverflowError("asymptotic kernel overflows at these arguments")
    return math.copysign(math.exp(lg), val)


def correl_n(model: ShiftedGUE, points) -> float:
    """n-point correlation det[K(x_i, x_j)] using the symmetric kernel."""
    pts = np.asarray(points, dtype=float)
    return float(np.linalg.det(kernel_shifted_gue(model, pts[:, None], pts[None, :])))
