"""Signed log-space arithmetic.

The exact kernels pair factors like exp(2*c*x - c^2) against Hermite/Laguerre
coefficients ~ 1/sqrt(N!) whose logs run to +-2000 at the sizes of interest.
Every such quantity is carried as a (sign, log-magnitude) pair and only
materialized to a native float once the pairing has brought it back on scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SignedLogValue", "slog_sum", "slog_sum_columns"]

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
        if (self.sign == 0) != (self.log_magnitude == _NEG_INF):
            raise ValueError("sign 0 <=> log_magnitude -inf violated")

    @staticmethod
    def zero() -> "SignedLogValue":
        return SignedLogValue(0, _NEG_INF)

    @staticmethod
    def one() -> "SignedLogValue":
        return SignedLogValue(1, 0.0)

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

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0 or other.sign == 0:
            return SignedLogValue.zero()
        return SignedLogValue(self.sign * other.sign, self.log_magnitude + other.log_magnitude)

    def __truediv__(self, other: "SignedLogValue") -> "SignedLogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by zero SignedLogValue")
        if self.sign == 0:
            return SignedLogValue.zero()
        return SignedLogValue(self.sign * other.sign, self.log_magnitude - other.log_magnitude)

    def __neg__(self) -> "SignedLogValue":
        return SignedLogValue(-self.sign, self.log_magnitude)

    def __add__(self, other: "SignedLogValue") -> "SignedLogValue":
        return slog_sum([self, other])

    def __sub__(self, other: "SignedLogValue") -> "SignedLogValue":
        return slog_sum([self, -other])

    def scaled(self, log_factor: float, sign: int = 1) -> "SignedLogValue":
        """Multiply by sign * exp(log_factor) without leaving log space."""
        if self.sign == 0:
            return self
        return SignedLogValue(self.sign * sign, self.log_magnitude + log_factor)

    def abs_log(self) -> float:
        return self.log_magnitude


def slog_sum(terms) -> SignedLogValue:
    """Sum of SignedLogValues via shift-by-max and compensated summation.

    Accurate to ~1e-16 relative to the largest term, which is the best any
    fixed-precision log-space accumulation can promise under cancellation.
    """
    signs = []
    logs = []
    for t in terms:
        if t.sign != 0:
            signs.append(t.sign)
            logs.append(t.log_magnitude)
    if not logs:
        return SignedLogValue.zero()
    m = max(logs)
    if m == _NEG_INF:
        return SignedLogValue.zero()
    total = math.fsum(s * math.exp(l - m) for s, l in zip(signs, logs))
    if total == 0.0:
        return SignedLogValue.zero()
    return SignedLogValue(1 if total > 0 else -1, math.log(abs(total)) + m)


def slog_sum_columns(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise signed log-sum of a (nterms, npoints) stack.

    Returns (sign, log) arrays of shape (npoints,). Each column is reduced
    with math.fsum after shifting by its max so that cancellation between
    huge opposite-sign terms keeps full double precision relative to the
    dominant term.
    """
    signs = np.asarray(signs)
    logs = np.asarray(logs)
    if signs.shape != logs.shape or signs.ndim != 2:
        raise ValueError("expected matching 2-d (nterms, npoints) arrays")
    npts = signs.shape[1]
    out_sign = np.zeros(npts, dtype=np.int8)
    out_log = np.full(npts, _NEG_INF)
    eff = np.where(signs != 0, logs, _NEG_INF)
    m = np.max(eff, axis=0) if signs.shape[0] else np.full(npts, _NEG_INF)
    live = np.isfinite(m)
    if not np.any(live):
        return out_sign, out_log
    if np.all(live):
        scaled = signs * np.exp(eff - m)
    else:
        scaled = np.zeros_like(logs)
        scaled[:, live] = signs[:, live] * np.exp(eff[:, live] - m[live])
    tops = m.tolist()
    for idx in np.nonzero(live)[0].tolist():
        # a list of Python floats: fsum reads it far faster than a numpy column
        total = math.fsum(scaled[:, idx].tolist())
        if total != 0.0:
            out_sign[idx] = 1 if total > 0 else -1
            out_log[idx] = math.log(abs(total)) + tops[idx]
    return out_sign, out_log
