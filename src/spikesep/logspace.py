"""Signed log-space arithmetic.

The exact kernels pair factors like exp(2*c*x - c^2) against Hermite/Laguerre
coefficients ~ 1/sqrt(N!) whose logs run to +-2000 at the sizes of interest.
Every such quantity is carried as a (sign, log-magnitude) pair and only
materialized to a native float once the pairing has brought it back on scale.

`SignedLogValue` holds one such number (a family value at one point) and
does no arithmetic beyond negation and scaling.  Every sum is taken over the
columns of a (terms, points) stack by `slog_sum_columns`: each column is
shifted by its largest term and the shifted values are summed to the bits
math.fsum gives, which is the correctly rounded sum, vectorised as one
error-free extraction and a rounding certificate per column, with math.fsum
for the columns the certificate cannot settle (see
`_correctly_rounded_sums`).  A NaN or +inf log among a column's live terms
raises ArithmeticError rather than read as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SignedLogValue", "slog_sum_columns"]

_NEG_INF = float("-inf")
_NARROW = 16  # stacks of fewer columns keep the per-column math.fsum loop
_U = 2.0**-53  # unit roundoff of a double
_SPLIT_ROWS = 64  # rows per block of the error-free extraction, so q never copies all of x


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as sign in {-1, 0, +1} and log of absolute value.

    Invariant: sign == 0 exactly when log_magnitude == -inf.
    """

    sign: int
    log_magnitude: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.log_magnitude == _NEG_INF):
            raise ValueError("sign 0 <=> log_magnitude -inf violated")

    @staticmethod
    def zero() -> "SignedLogValue":
        return SignedLogValue(0, _NEG_INF)

    @staticmethod
    def from_float(x: float) -> "SignedLogValue":
        if x == 0.0:
            return SignedLogValue.zero()
        if not math.isfinite(x):
            raise ValueError(f"cannot encode non-finite value {x}")
        return SignedLogValue(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(sign: int, log_magnitude: float) -> "SignedLogValue":
        if sign == 0 or log_magnitude == _NEG_INF:
            return SignedLogValue.zero()
        return SignedLogValue(1 if sign > 0 else -1, float(log_magnitude))

    def to_float(self) -> float:
        """Materialize; overflows raise rather than returning inf silently."""
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > 709.0:
            raise OverflowError(
                f"materializing log-magnitude {self.log_magnitude:.3f} overflows a double"
            )
        return self.sign * math.exp(self.log_magnitude)

    def __neg__(self) -> "SignedLogValue":
        return SignedLogValue(-self.sign, self.log_magnitude)

    def scaled(self, log_factor: float) -> "SignedLogValue":
        """Multiply by exp(log_factor) without leaving log space."""
        if self.sign == 0:
            return self
        return SignedLogValue(self.sign, self.log_magnitude + log_factor)


def slog_sum_columns(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise signed log-sum of a (nterms, npoints) stack.

    Returns (sign, log) arrays of shape (npoints,).  Each column is shifted
    by its max, so that cancellation between huge opposite-sign terms keeps
    full double precision relative to the dominant term, and the shifted
    terms are summed with the bits math.fsum gives: stacks of fewer than
    _NARROW columns call math.fsum per column, wider ones take
    `_correctly_rounded_sums`.  Terms of sign 0 or log -inf are zeros; a
    column whose max log is NaN or +inf raises ArithmeticError.
    """
    signs = np.asarray(signs)
    logs = np.asarray(logs)
    if signs.shape != logs.shape or signs.ndim != 2:
        raise ValueError("expected matching 2-d (nterms, npoints) arrays")
    return _shifted_sums(*_shifted_terms(signs, logs))


def _shifted_terms(signs, logs):
    """(sign e^{log - m}, m, live) of a (nterms, npoints) stack, m each
    column's largest live log (-inf for a column of zeros) and live where it
    is finite."""
    scaled = np.where(signs != 0, logs, _NEG_INF)
    m = np.max(scaled, axis=0) if signs.shape[0] else np.full(signs.shape[1], _NEG_INF)
    live = np.isfinite(m)
    scaled -= m if live.all() else np.where(live, m, 0.0)
    np.exp(scaled, out=scaled)
    scaled *= signs
    return scaled, m, live


def _shifted_sums(scaled, m, live):
    """(sign, log) of each column's sum from `_shifted_terms`, correctly rounded
    (see `slog_sum_columns`); scaled is overwritten."""
    npts = scaled.shape[1]
    out_sign = np.zeros(npts, dtype=np.int8)
    out_log = np.full(npts, _NEG_INF)
    if not live.all():
        if np.any(m[~live] != _NEG_INF):
            raise ArithmeticError("signed log-sum over a NaN or +inf log")
        if not live.any():
            return out_sign, out_log
    if npts < _NARROW:
        tops = m.tolist()
        for idx in np.nonzero(live)[0].tolist():
            # a list of Python floats: fsum reads it far faster than a numpy column
            total = math.fsum(scaled[:, idx].tolist())
            if total != 0.0:
                out_sign[idx] = 1 if total > 0 else -1
                out_log[idx] = math.log(abs(total)) + tops[idx]
        return out_sign, out_log
    total = _correctly_rounded_sums(scaled, live)
    nz = np.flatnonzero(total)
    out_sign[nz] = np.where(total[nz] > 0, 1, -1)
    out_log[nz] = _logs(np.abs(total[nz])) + m[nz]
    return out_sign, out_log


def _logs(values):
    """math.log per entry: np.log's SIMD loops can differ from it in the last bit."""
    return np.array([math.log(v) for v in values.tolist()])


def _correctly_rounded_sums(x: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Column sums of x, |x| <= 1, each rounded to nearest as math.fsum rounds it.

    One error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation", SISC 2008) splits each entry as q + p.  With sigma =
    2^ceil(log2(n + 1)) every q is a multiple of u sigma (u = 2^-53) and
    |p| <= u sigma, so the q sum is exact in any order and the p sum rho is
    off by at most gamma_{n-1} n u sigma <= 2 n^2 u^2 sigma.  The rounded
    total r = fl(tau + rho) and its exact TwoSum error t certify r as the
    correctly rounded column sum when the whole error interval t +- that
    bound lies strictly inside r's rounding interval, whose halves are half
    the gaps to r's neighbours (unequal at a power of two).  A live column
    that is not certified, a zero total among them, is summed again by
    math.fsum over its exact parts.  x is overwritten with the p parts.
    """
    n = x.shape[0]
    if n <= 2:
        return x.sum(axis=0)  # one IEEE addition is already correctly rounded
    sigma = 2.0 ** math.ceil(math.log2(n + 1))
    tau = np.zeros(x.shape[1])
    for start in range(0, n, _SPLIT_ROWS):  # q in blocks: its sum is exact in any order
        part = x[start : start + _SPLIT_ROWS]
        q = part + sigma
        q -= sigma
        part -= q
        tau += q.sum(axis=0)
    rho = x.sum(axis=0)
    total = tau + rho
    back = total - tau
    err = (tau - (total - back)) + (rho - back)
    bound = 2.0 * n * n * _U * _U * sigma
    certified = (total != 0.0) & (err + bound < 0.5 * (np.nextafter(total, np.inf) - total))
    certified &= err - bound > 0.5 * (np.nextafter(total, -np.inf) - total)
    for idx in np.flatnonzero(live & ~certified).tolist():
        total[idx] = math.fsum(x[:, idx].tolist() + [tau[idx]])
    return total
