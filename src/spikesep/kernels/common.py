"""Shared log-space plumbing for kernel evaluation over grids, and the
helpers the kernel models share."""

from __future__ import annotations

import math

import numpy as np

from ..logspace import slog_sum_columns
from ..secular import SeparationPrediction

__all__ = [
    "pairwise",
    "half_line",
    "pair_and_sum",
    "materialize_columns",
    "sampled_rows",
    "shift_prediction",
]


def pairwise(evaluate, x, y):
    """evaluate(xs, ys) on the flattened broadcast of x and y, in their shape.

    Column i of xs is paired with column i of ys; scalar x and y give a float.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = evaluate(x.ravel(), y.ravel())
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def half_line(evaluate, x, zero_ok=True):
    """A density on x >= 0: evaluate(xp) at the points xp > 0 of x and 0 at x = 0
    (an error unless zero_ok).  A scalar x gives a float."""
    x = np.asarray(x, dtype=float)
    xv = np.atleast_1d(x)
    if not np.all(xv >= 0):  # NaN fails this too
        raise ValueError("density is supported on x >= 0")
    out = np.zeros(xv.shape)
    pos = xv > 0
    if not zero_ok and not pos.all():
        raise ValueError("x = 0 needs alpha > 0 (density limit 0)")
    xp = xv[pos]
    if xp.size:
        out[pos] = evaluate(xp)
    return float(out[0]) if x.ndim == 0 else out


def pair_and_sum(s_left, l_left, s_right, l_right):
    """Sum over the family index of products left_j(x) * right_j(x).

    Inputs are (r, npts) sign/log stacks; returns (sign, log) of shape (npts,).
    """
    signs = (s_left * s_right).astype(np.int8)
    logs = l_left + l_right
    return slog_sum_columns(signs, logs)


def materialize_columns(sign, log):
    """(sign, log) arrays -> floats; underflow becomes 0, overflow raises."""
    sign = np.asarray(sign)
    log = np.asarray(log)
    if np.any(log[sign != 0] > 709.0):
        raise OverflowError("kernel value overflows a double; keep it in log space")
    out = np.zeros(log.shape)
    live = sign != 0
    out[live] = sign[live] * np.exp(log[live])
    return out


def sampled_rows(m: int, alpha: float) -> int:
    """Row count n = m + alpha of the sampled n x m matrix; alpha must be an integer."""
    if abs(alpha - round(alpha)) > 1e-12:
        raise ValueError("Monte Carlo needs integer alpha = n - m")
    return m + int(round(alpha))


def shift_prediction(bulk_edge: float, spike: float) -> SeparationPrediction:
    """Mean (GUE) or singular-value (chiral) shift of `spike` threshold units:
    it separates above spike 1, at 0.5 * J * (spike + 1/spike) for bulk edge J."""
    if not 0 <= spike < math.inf:  # NaN fails this too
        raise ValueError("shift strength must be finite and >= 0")
    if spike > 1.0:
        return SeparationPrediction(1.0, True, 0.5 * bulk_edge * (spike + 1.0 / spike))
    return SeparationPrediction(1.0, False)
