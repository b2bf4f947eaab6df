"""Stable special functions and combinatorics used by every other module.

Weighted orthonormal Hermite and Laguerre functions are evaluated by
three-term recurrences on the weighted functions themselves; the raw
polynomials H_p, L_p^a overflow doubles long before the sizes used here
(p up to ~2000).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, ive

__all__ = [
    "hermite_weighted_signlog",
    "laguerre_weighted_signlog",
    "laguerre_line_signlog",
    "log_0f1",
    "hyp0f1_complex",
    "catalan",
    "narayana",
    "narayana_polynomial",
    "narayana_generating_closed_form",
]

_LOG_PI = math.log(math.pi)
_RESCALE_LO = 1e-250
_RESCALE_HI = 1e250
_RESCALE_LOG = 600.0
_RESCALE_UP = math.exp(_RESCALE_LOG)
_RESCALE_DOWN = math.exp(-_RESCALE_LOG)
_HYP0F1_TOL = 1e-17
_HYP0F1_TERMS = 600


def _signlog_store(n, x, log0, step):
    """Run a rescaled two-carrier recurrence and store sign/log of every row.

    `step(p, v_p, v_pm1, x)` returns v_{p+1} for carriers scaled by a common
    running offset; the offset is adjusted whenever the carriers leave
    [1e-250, 1e250], so no degree or argument underflows silently.  Each row
    stores its carrier, and each rescale the columns it moved, so signs and
    logs are taken once over the whole stack at the end, with the offsets
    accumulated in the same order as the carriers were rescaled.  One
    min/max test per row (NaN-blind, like the masks) keeps the masked
    rescale off the common path.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.empty((n, x.size))
    vals[0] = 1.0
    rescales = []  # (first row of the new offset, columns scaled up, columns scaled down)
    v_prev = np.zeros(x.size)
    abs_prev = vals[0]
    for p in range(n - 1):
        v_curr = vals[p]
        vals[p + 1] = step(p, v_curr, v_prev, x)
        abs_next = np.abs(vals[p + 1])
        mag = np.maximum(abs_next, abs_prev)
        lo, hi = np.fmin.reduce(mag, initial=1.0), np.fmax.reduce(mag, initial=1.0)
        if lo < _RESCALE_LO or hi > _RESCALE_HI:
            v_curr = v_curr.copy()  # row p is stored as it was; only its carrier moves
            up = np.flatnonzero((mag > 0) & (mag < _RESCALE_LO))
            down = np.flatnonzero(mag > _RESCALE_HI)
            vals[p + 1, up] *= _RESCALE_UP
            v_curr[up] *= _RESCALE_UP
            vals[p + 1, down] *= _RESCALE_DOWN
            v_curr[down] *= _RESCALE_DOWN
            rescales.append((p + 1, up, down))
            abs_next = np.abs(vals[p + 1])
        v_prev, abs_prev = v_curr, abs_next
    signs = np.sign(vals, out=np.empty(vals.shape, dtype=np.int8), casting="unsafe")
    logs = np.abs(vals, out=vals)
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs)
    offset = np.array(log0, dtype=float)
    first = 0
    for row, up, down in rescales:
        logs[first:row] += offset
        offset[up] -= _RESCALE_LOG
        offset[down] += _RESCALE_LOG
        first = row
    logs[first:] += offset
    return signs, logs


def hermite_weighted_signlog(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign/log arrays of psi_p(x) = H_p(x) e^{-x^2/2} / (pi^{1/4} 2^{p/2} sqrt(p!))
    for p < n over a grid; immune to under/overflow."""
    if n < 1:
        raise ValueError("need at least one function (n >= 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log0 = -0.25 * _LOG_PI - 0.5 * x * x

    def step(p, v, v1, xs):
        if p == 0:
            return math.sqrt(2.0) * xs * v
        return math.sqrt(2.0 / (p + 1)) * xs * v - math.sqrt(p / (p + 1.0)) * v1

    return _signlog_store(n, x, log0, step)


def laguerre_weighted_signlog(n: int, a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign/log arrays of phi_p(x) = sqrt(p!/Gamma(p+a+1)) x^{a/2} e^{-x/2} L_p^a(x)
    for p < n over a grid (x > 0 entrywise)."""
    if n < 1:
        raise ValueError("need at least one function (n >= 1)")
    if a <= -1:
        raise ValueError("Laguerre parameter must satisfy a > -1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("signlog Laguerre grid must be strictly positive")
    log0 = 0.5 * a * np.log(x) - 0.5 * x - 0.5 * gammaln(a + 1.0)

    def step(p, v, v1, xs):
        c1 = (2 * p + a + 1.0 - xs) / math.sqrt((p + 1.0) * (p + 1.0 + a))
        c2 = math.sqrt(p * (p + a) / ((p + 1.0) * (p + 1.0 + a)))
        return c1 * v - c2 * v1

    return _signlog_store(n, x, log0, step)


def laguerre_line_signlog(n: int, big_m: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign/log arrays of T_q(x) = [z^q] e^{-xz}(1+z)^{big_m} for q < n.

    T_q equals the generalized Laguerre polynomial L_q^{big_m - q}(x); the whole
    line of degree/parameter pairs comes from one recurrence,
    (q+1) T_{q+1} = (big_m - x - q) T_q - x T_{q-1},  T_0 = 1, T_1 = big_m - x.
    """
    if n < 1:
        raise ValueError("need at least one coefficient (n >= 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log0 = np.zeros(x.size)

    def step(q, v, v1, xs):
        if q == 0:
            return (big_m - xs) * v
        return ((big_m - xs - q) * v - xs * v1) / (q + 1.0)

    return _signlog_store(n, x, log0, step)


def log_0f1(b: float, z: float) -> float:
    """log of 0F1(b; z) for z >= 0, b > 0, safe for huge z.

    Uses 0F1(b; z) = Gamma(b) z^{-(b-1)/2} I_{b-1}(2 sqrt(z)).
    """
    if b <= 0:
        raise ValueError("parameter must be positive")
    if z < 0:
        raise ValueError("use hyp0f1_complex for negative or complex arguments")
    if z == 0.0:
        return 0.0
    s = 2.0 * math.sqrt(z)
    return gammaln(b) - 0.5 * (b - 1.0) * math.log(z) + s + math.log(ive(b - 1.0, s))


def hyp0f1_complex(b: float, z: complex) -> complex:
    """0F1(b; z) by direct series for complex z of moderate size (|z| <= ~2000).

    Oracle-grade helper: raises if the alternating-series cancellation would
    eat more than ~6 digits, instead of returning a silently inaccurate value.
    """
    if abs(z) > 2000:
        raise ValueError("series evaluation restricted to |z| <= 2000")
    term = complex(1.0)
    total = complex(1.0)
    peak = 1.0
    for k in range(1, _HYP0F1_TERMS):
        term *= z / ((b + k - 1.0) * k)
        total += term
        peak = max(peak, abs(term))
        if abs(term) < _HYP0F1_TOL * max(abs(total), 1e-300):
            break
    if abs(total) > 0 and peak / abs(total) > 1e10:
        raise ArithmeticError("series cancellation too severe for reliable evaluation")
    return total


def catalan(k: int) -> int:
    """k-th Catalan number, exact."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k > 64:
        raise OverflowError("Catalan numbers supported up to k = 64")
    return math.comb(2 * k, k) // (k + 1)


def narayana(k: int, j: int) -> int:
    """Narayana number N(k, j) = (1/k) C(k, j+1) C(k, j), exact, 0 <= j <= k-1."""
    if k < 1:
        raise ValueError("row index must be positive")
    if k > 64:
        raise OverflowError("Narayana numbers supported up to k = 64")
    if not 0 <= j <= k - 1:
        raise ValueError("column index must satisfy 0 <= j <= k-1")
    num = math.comb(k, j + 1) * math.comb(k, j)
    q, rem = divmod(num, k)
    if rem:
        raise ArithmeticError("Narayana value failed integrality check")
    return q


def narayana_polynomial(k: int, p: float, q: float) -> float:
    """A_k(p, q) = sum_i N(k, i-1) p^i q^{k+1-i}."""
    return sum(narayana(k, i - 1) * p**i * q ** (k + 1 - i) for i in range(1, k + 1))


def narayana_generating_closed_form(p: float, q: float, t: float) -> float:
    """t * sum_k A_k(p,q) t^k = (1 - u - v - sqrt(1 - 2(u+v) + (u-v)^2)) / 2."""
    u, v = p * t, q * t
    disc = 1.0 - 2.0 * (u + v) + (u - v) ** 2
    if disc < 0:
        raise ValueError("outside the convergence region of the generating function")
    return 0.5 * (1.0 - u - v - math.sqrt(disc))
