"""Signed log-space arithmetic.

The exact kernels pair factors like exp(2*c*x - c^2) against Hermite/Laguerre
coefficients ~ 1/sqrt(N!) whose logs run to +-2000 at the sizes of interest.
Every such quantity is carried as a (sign, log-magnitude) pair and only
materialized to a native float once the pairing has brought it back on scale.

`SignedLogValue` holds one such number (a family value at one point) and
does no arithmetic beyond negation and scaling.  Every sum is taken over the
columns of a (terms, points) stack by `slog_sum_columns`, in one order: each
column is shifted by its largest term, and the shifted terms are summed
pairwise over the column's own contiguous run.  A column's bits thus depend
on its own terms alone, however many columns share the call, and its error
is O(log k) u times the sum of its |terms| (k terms, u the unit roundoff).
A NaN or +inf log among a column's live terms raises ArithmeticError rather
than read as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SignedLogValue", "slog_sum_columns"]

_NEG_INF = float("-inf")


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
        if math.isnan(self.log_magnitude):
            raise ValueError("log_magnitude must not be NaN")
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
    by its largest live log m, so that cancellation between huge
    opposite-sign terms keeps full double precision relative to the
    dominant term, and its terms sign e^{log - m} are summed by numpy's
    pairwise sum over the column's own contiguous run (the stack is copied
    once, into F order).  A column's bits therefore depend only on its own
    terms and their count, never on the other columns of the call.  The
    error of the sum of k terms is at most (k - 1) u sum |terms| in any
    order and O(log k) u sum |terms| for the pairwise one (u the unit
    roundoff; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 4.2).  Terms of sign 0 or log -inf are zeros; a column whose
    largest live log is NaN or +inf raises ArithmeticError.
    """
    signs = np.asfortranarray(signs)
    scaled = np.array(logs, dtype=float, order="F")
    if signs.shape != scaled.shape or signs.ndim != 2:
        raise ValueError("expected matching 2-d (nterms, npoints) arrays")
    zero = signs == 0
    if zero.any():
        scaled[zero] = _NEG_INF
    top = scaled.max(axis=0, initial=_NEG_INF)
    dead = ~np.isfinite(top)
    if dead.any():
        if np.any(top[dead] != _NEG_INF):
            raise ArithmeticError("signed log-sum over a NaN or +inf log")
        top[dead] = 0.0  # a column of zeros: its terms stay e^-inf = 0
    scaled -= top
    np.exp(scaled, out=scaled)
    scaled *= signs
    total = scaled.sum(axis=0)
    log = _logs(np.abs(total))
    log += top
    return np.sign(total).astype(np.int8), log


def _logs(values):
    """math.log per entry (-inf at 0): np.log's SIMD loops can differ from it
    in the last bit."""
    return np.array([math.log(v) if v else _NEG_INF for v in values.tolist()])
