"""Stable special functions used by every other module.

Weighted orthonormal Hermite and Laguerre functions are evaluated by
three-term recurrences on the weighted functions themselves; the raw
polynomials H_p, L_p^a overflow doubles long before the sizes used here
(p up to ~2000).  Every recurrence runs through one row loop,
`_signlog_store`: a caller writes the x-dependent coefficient block into
the stack it will fill and hands over the per-row scalars (cached per
size), so each row is a few in-place ufuncs; the range test for a rescale
runs only where bounds from the coefficients cannot rule one out.  A line
takes one parameter sum per point, so the spiked LUE's two coefficient
lines (M and M - 1) run as one call on its points laid twice, and its bulk
comes from four entries of them by Christoffel-Darboux
(`kernels.laguerre.SpikedLUE._bulk`).  The raw H_k(x - c), k < r, of the
shifted GUE's residue at -2c run through it too, rescaled where a native
loop overflows (k near 200).  Each returns its rows with a `grow` method
that continues the recurrence from its last two carriers (or its last
growth at the same columns), as the merged-pole series asks.  `log_0f1`
takes arrays: one `ive` call per block, the series where it underflows,
and the Hankel expansion where scipy's is NaN.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys

import numpy as np
from scipy.special import gammaln, ive

from .logspace import _logs

__all__ = [
    "hermite_weighted_signlog",
    "laguerre_weighted_signlog",
    "laguerre_line_signlog",
    "log_0f1",
    "hyp0f1_complex",
]

_LOG_PI = math.log(math.pi)
_RESCALE_LO = 1e-250
_RESCALE_HI = 1e250
_RESCALE_LOG = 600.0
_RESCALE_UP = math.exp(_RESCALE_LOG)
_RESCALE_DOWN = math.exp(-_RESCALE_LOG)
_NO_COLUMNS = np.empty(0, dtype=np.intp)
_PROOF_ROWS = 32  # fewer rows to form test every row: a proof costs ~10 numpy calls
_PROOF_MARGIN = 1.0  # nats a proven run keeps clear of each end of [1e-250, 1e250]
_HYP0F1_TOL = 1e-17
_HYP0F1_TERMS = 600
_HANKEL_TOL = 1e-17


def _signlog_store(vals, log0, b, d=None, carry=None):
    """Run a rescaled two-carrier recurrence and store sign/log of every row.

    `vals` is the (n, columns) stack to fill: on entry rows 1..n-1 hold the
    x-dependent coefficient block A_0..A_{n-2}.  Row 0 is the carrier 1, row
    1 is A_0, and each later row is formed in place,
        v_{p+1} = (A_p v_p - b[p] v_{p-1}) / d[p],
    where b[p] is a scalar, or one vector over the columns for every row, and
    d is None when the recurrence does not divide.  The products and the difference run in
    the order the closed forms write them, so every carrier has the bits of
    a per-row scalar-coefficient step.

    The carriers are scaled by a running per-column offset that moves by
    e^{-+600} wherever mag = max(|v_{p+1}|, |v_p|) leaves [1e-250, 1e250],
    so no degree or argument underflows silently.  The test per row reads
    |v_{p+1}| alone (fmin/fmax, NaN-blind like the masks) and fires whenever
    the mag test would: mag < 1e-250 implies |v_{p+1}| < 1e-250, and a
    processed carrier is at most 1e250 (or inf, whose non-NaN successor is
    inf too), so mag > 1e250 exactly where |v_{p+1}| > 1e250.  The rescale
    moves those columns down, and up the columns among |v_{p+1}| < 1e-250
    with 0 < mag < 1e-250.  Each rescale stores the columns it moved, so
    signs and logs are taken once over the whole stack at the end, with the
    offsets accumulated in the order the carriers were rescaled.  After a
    tested row, `_proven_rows` finds the rows ahead in which no mag can leave
    [1e-250, 1e250]; they are formed with the arithmetic alone, as the test
    would move nothing there, so every bit is kept.  A failed proof waits
    four tested rows; a call forming under _PROOF_ROWS rows tests them all.

    carry = (first, v_prev, v_curr) continues a run whose carriers of rows
    first - 2 and first - 1 these are, with log0 its final offset: row i of
    vals is then row first + i, and holds A_{first+i-1} on entry.  Returns
    the signs, the logs and the (v_prev, v_curr, offset) that continue this
    run.
    """
    n, ncols = vals.shape
    if carry is None:
        vals[0] = 1.0
        first, v_prev, v_curr = 0, vals[0], vals[0]
    else:
        first, v_prev, v_curr = carry
    rescales = []  # (first row of the new offset, columns scaled up, columns scaled down)
    scratch = np.empty(ncols)
    start = 1 if carry is None else 0
    bounds = _run_bounds(vals[1:], b, d, first) if n - start >= _PROOF_ROWS else None
    unchecked, retry = 0, (n if bounds is None else start)  # rows below `unchecked` are proven
    for i in range(start, n):
        p = first + i - 1  # the step that forms row first + i
        row = vals[i]
        if p:
            np.multiply(row, v_curr, out=row)
            np.multiply(b[p], v_prev, out=scratch)
            np.subtract(row, scratch, out=row)
            if d is not None:
                np.divide(row, d[p], out=row)
        if i < unchecked:
            v_prev, v_curr = v_curr, row
            continue
        size = np.abs(row, out=scratch)  # |v_{p+1}|
        lo, hi = np.fmin.reduce(size, initial=1.0), np.fmax.reduce(size, initial=1.0)
        if lo < _RESCALE_LO or hi > _RESCALE_HI:
            down = np.flatnonzero(size > _RESCALE_HI) if hi > _RESCALE_HI else _NO_COLUMNS
            up = _NO_COLUMNS
            if lo < _RESCALE_LO:
                small = np.flatnonzero(size < _RESCALE_LO)
                mag = np.maximum(size[small], np.abs(v_curr[small]))
                up = small[(mag > 0) & (mag < _RESCALE_LO)]
            if up.size or down.size:
                v_curr = v_curr.copy()  # row p is stored as it was; only its carrier moves
                row[up] *= _RESCALE_UP
                v_curr[up] *= _RESCALE_UP
                row[down] *= _RESCALE_DOWN
                v_curr[down] *= _RESCALE_DOWN
                rescales.append((i, up, down))
        v_prev, v_curr = v_curr, row
        if i >= retry:
            unchecked = i + 1 + _proven_rows(bounds, i, v_prev, v_curr)
            retry = unchecked if unchecked > i + 1 else i + 4
    v_prev, v_curr = v_prev.copy(), v_curr.copy()  # the rows below are overwritten
    signs = np.sign(vals, out=np.empty(vals.shape, dtype=np.int8), casting="unsafe")
    logs = np.abs(vals, out=vals)
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs)
    offset = np.array(log0, dtype=float)
    start = 0
    for row, up, down in rescales:
        logs[start:row] += offset
        offset[up] -= _RESCALE_LOG
        offset[down] += _RESCALE_LOG
        start = row
    logs[start:] += offset
    return signs, logs, (v_prev, v_curr, offset)


def _run_bounds(block, b, d, p0):
    """Prefix sums over the steps p of `block` (A_{p0}, A_{p0+1}, ...) of the
    nats by which a column's pair max(|v_{p-1}|, |v_p|) can at most grow,
    log max(1, (max|A_p| + max|b_p|)/|d_p|), and shrink, log max(1, (max|A_p|
    + |d_p|)/min|b_p|) as b_p v_{p-1} = A_p v_p - d_p v_{p+1}.  NaN columns
    are skipped (their carriers stay NaN); an inf or NaN factor bars a run."""
    p1 = p0 + block.shape[0]
    amax = np.fmax(np.fmax.reduce(block, axis=1, initial=0.0), -np.fmin.reduce(block, axis=1, initial=0.0))
    bs = np.abs(b[p0]) if isinstance(b[p0], np.ndarray) else np.abs(b[p0:p1])[:, None]
    bmax, bmin = np.fmax.reduce(bs, axis=-1, initial=0.0), np.fmin.reduce(bs, axis=-1, initial=np.inf)
    dd = 1.0 if d is None else np.asarray(d[p0:p1])  # d >= 1: no product overflows before its quotient
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nats = np.fmin(np.log(np.maximum([(amax + bmax) / dd, (amax + dd) / bmin], 1.0)), 1e6)
    return np.concatenate((np.zeros((2, 1)), np.cumsum(nats, axis=1)), axis=1)


def _proven_rows(bounds, i, v_prev, v_curr):
    """How many rows after row i (carriers v_prev, v_curr) no column's pair max
    can take out of [1e-250, 1e250], by the call's `_run_bounds`.  Zero pairs
    stay zero (or turn NaN), and NaN columns never move."""
    grow, shrink = bounds
    mag = np.maximum(np.abs(v_prev), np.abs(v_curr))
    hi, lo = np.fmax.reduce(mag, initial=1.0), np.fmin.reduce(mag, where=mag > 0.0, initial=1.0)
    up = grow.searchsorted(grow[i] + math.log(_RESCALE_HI) - math.log(hi) - _PROOF_MARGIN, "right")
    down = shrink.searchsorted(shrink[i] + math.log(lo) - math.log(_RESCALE_LO) - _PROOF_MARGIN, "right")
    return max(0, min(up, down) - 1 - i)


def _read_only(*arrays):
    """The arrays, made read-only: a cache hands them to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _hermite_rows(n):
    """x-independent coefficients of psi_{p+1} = (s1_p x) psi_p - s2_p psi_{p-1},
    p < n - 1: s1 as a column, s2 as floats."""
    p = np.arange(n - 1)
    return *_read_only(np.sqrt(2.0 / (p + 1))[:, None]), np.sqrt(p / (p + 1.0)).tolist()


@functools.lru_cache(maxsize=64)
def _laguerre_rows(n, a):
    """x-independent coefficients of phi_{p+1} = ((2p+a+1) - x)/d_p phi_p - c2_p phi_{p-1},
    p < n - 1: (2p+a+1) and d_p as columns, c2_p as floats."""
    p = np.arange(n - 1)
    pf = p + 1.0
    denom = pf * (pf + a)
    columns = _read_only((2 * p + a + 1.0)[:, None], np.sqrt(denom)[:, None])
    return *columns, np.sqrt(p * (p + a) / denom).tolist()


class _SignLogRows(tuple):
    """(signs, logs) of rows 0..n-1 of a weighted recurrence over a grid.

    steps(p0, p1, cols, out) writes the blocks A_p, p0 <= p < p1, at the
    columns cols into out and returns the b and d of `_signlog_store`.
    """

    def __new__(cls, n, log0, steps, ncols):
        vals = np.empty((n, ncols))
        b, d = steps(0, n - 1, slice(None), vals[1:])
        signs, logs, carry = _signlog_store(vals, log0, b, d)
        rows = super().__new__(cls, (signs, logs))
        rows._steps, rows._carry, rows._grown = steps, carry, None
        return rows

    def grow(self, cols, rows):
        """(signs, logs) of the rows n..rows-1 past these at the columns cols,
        continued from their last two carriers, each with the bits a call for
        `rows` rows gives it.  The last growth's rows and carriers are kept,
        so a growth at the same columns forms only its new rows."""
        n = self[0].shape[0]
        if self._grown is None or not np.array_equal(self._grown[0], cols):
            self._grown = cols, self[0][n:, cols], self[1][n:, cols], [a[cols] for a in self._carry]
        _, signs, logs, (v_prev, v_curr, offset) = self._grown
        have = n + signs.shape[0]
        if rows > have:
            vals = np.empty((rows - have, cols.size))
            b, d = self._steps(have - 1, rows - 1, cols, vals)
            more = _signlog_store(vals, offset, b, d, (have, v_prev, v_curr))
            signs, logs = _read_only(np.concatenate((signs, more[0])), np.concatenate((logs, more[1])))
            self._grown = cols, signs, logs, more[2]
        return signs[:rows - n], logs[:rows - n]


def hermite_weighted_signlog(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign/log arrays of psi_p(x) = H_p(x) e^{-x^2/2} / (pi^{1/4} 2^{p/2} sqrt(p!))
    for p < n over a grid; immune to under/overflow."""
    if n < 1:
        raise ValueError("need at least one function (n >= 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def steps(p0, p1, cols, out):
        s1, s2 = _hermite_rows(p1 + 1)
        np.multiply(s1[p0:], x[cols], out=out)
        return s2, None

    return _SignLogRows(n, -0.25 * _LOG_PI - 0.5 * x * x, steps, x.size)


def _raw_hermite_signlog(n, u):
    """Sign/log arrays of the raw H_p(u), p < n, by H_{p+1} = 2u H_p - 2p H_{p-1}
    in a native loop's order: its bits wherever its carriers stay in range."""

    def steps(p0, p1, cols, out):
        np.multiply(2.0, u[cols], out=out)
        return (2.0 * np.arange(p1)).tolist(), None

    return _SignLogRows(n, np.zeros(u.size), steps, u.size)


def laguerre_weighted_signlog(n: int, a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign/log arrays of phi_p(x) = sqrt(p!/Gamma(p+a+1)) x^{a/2} e^{-x/2} L_p^a(x)
    for p < n over a grid (x > 0 entrywise; NaN raises)."""
    if n < 1:
        raise ValueError("need at least one function (n >= 1)")
    if a <= -1:
        raise ValueError("Laguerre parameter must satisfy a > -1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x > 0):  # NaN fails this too
        raise ValueError("signlog Laguerre grid must be strictly positive")

    def steps(p0, p1, cols, out):
        shift, scale, c2 = _laguerre_rows(p1 + 1, a)
        np.subtract(shift[p0:], x[cols], out=out)
        np.divide(out, scale[p0:], out=out)
        return c2, None

    log0 = 0.5 * a * np.log(x) - 0.5 * x - 0.5 * gammaln(a + 1.0)
    return _SignLogRows(n, log0, steps, x.size)


def laguerre_line_signlog(n: int, big_m, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign/log arrays of T_q(x) = [z^q] e^{-xz}(1+z)^{big_m} for q < n.

    T_q equals the generalized Laguerre polynomial L_q^{big_m - q}(x); the whole
    line of degree/parameter pairs comes from one recurrence,
    (q+1) T_{q+1} = (big_m - x - q) T_q - x T_{q-1},  T_0 = 1, T_1 = big_m - x.
    big_m is a float or one value per point, so one call runs several lines.
    """
    if n < 1:
        raise ValueError("need at least one coefficient (n >= 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lead = big_m - x

    def steps(p0, p1, cols, out):
        q = np.arange(p1 + 0.0)
        np.subtract(lead[cols], q[p0:, None], out=out)
        return [x[cols]] * p1, (q + 1.0).tolist()

    return _SignLogRows(n, np.zeros(x.size), steps, x.size)


def log_0f1(b, z):
    """log of 0F1(b; z) for z >= 0, b > 0, safe for huge z, entrywise over the
    broadcast of b and z (a float for scalars).

    Uses 0F1(b; z) = Gamma(b) z^{-(b-1)/2} I_{b-1}(2 sqrt(z)), one `ive` call
    on the whole block.  Where the scaled Bessel value underflows (b large
    against z) an entry sums the series sum_k z^k / ((b)_k k!) instead; where
    `ive` is NaN at a finite argument (scipy's is from 2 sqrt(z) = 2^30) it
    takes the large-argument expansion.  Each entry has a scalar call's bits.
    """
    b, z = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(z, dtype=float))
    shape, b, z = z.shape, b.ravel(), z.ravel()
    if not (np.isfinite(b).all() and np.isfinite(z).all()):
        raise ValueError("0F1 needs finite b and z")  # the series would never stop
    if not (b > 0).all():
        raise ValueError("parameter must be positive")
    if not (z >= 0).all():
        raise ValueError("use hyp0f1_complex for negative or complex arguments")
    out = np.zeros(z.size)  # 0F1(b; 0) = 1
    s = 2.0 * np.sqrt(z)
    bessel = ive(b - 1.0, s)
    large = (z > 0) & np.isnan(bessel)  # the expansion's log is added below
    closed = large | (z > 0) & (bessel >= sys.float_info.min)  # no underflow, not even subnormal
    bc, log_bessel = b[closed], _logs(np.where(large, 1.0, bessel)[closed])
    out[closed] = gammaln(bc) - 0.5 * (bc - 1.0) * _logs(z[closed]) + s[closed] + log_bessel
    if large.any():
        out[large] += _hankel_log_ive(b[large] - 1.0, s[large])
    series = (z > 0) & ~closed
    out[series] = [_log_0f1_series(*bz) for bz in zip(b[series].tolist(), z[series].tolist())]
    return float(out[0]) if not shape else out.reshape(shape)


def _log_0f1_series(b, z):
    """log 0F1(b; z) = log sum_k z^k / ((b)_k k!), summed relative to its largest term."""
    terms = [0.0]  # log z^k / ((b)_k k!)
    while True:
        k = len(terms)
        ratio = z / ((b + k - 1.0) * k)  # falls with k
        if ratio <= 0.5 and terms[-1] < max(terms) - 40.0:
            break  # the rest sum to below e^{-40} of the largest term
        terms.append(terms[-1] + math.log(ratio))
    top = terms.pop(terms.index(max(terms)))
    return top + math.log1p(math.fsum(math.exp(t - top) for t in terms))


def _hankel_log_ive(nu, s):
    """log ive(nu, s) for large s by I_nu(s) e^{-s} ~ (2 pi s)^{-1/2} sum_k
    (-1)^k a_k(nu) s^{-k} (DLMF 10.40.1), summed until every term is below
    _HANKEL_TOL of its sum; ArithmeticError if the terms stop falling first."""
    mu = 4.0 * nu * nu
    term, total = np.ones(s.size), np.ones(s.size)
    for k in itertools.count(1):
        step = term * (((2 * k - 1) ** 2 - mu) / (8.0 * k * s))
        if np.any((step != 0.0) & ~(np.abs(step) < np.abs(term))):
            raise ArithmeticError("the large-argument Bessel expansion does not converge here")
        term, total = step, total + step
        if np.all(np.abs(term) <= _HANKEL_TOL * total):
            return _logs(total) - 0.5 * _logs(2.0 * math.pi * s)


def hyp0f1_complex(b: float, z: complex) -> complex:
    """0F1(b; z) by direct series for complex z of moderate size (|z| <= ~2000).

    Oracle-grade helper: raises if the alternating-series cancellation would
    eat more than ~6 digits, instead of returning a silently inaccurate value.
    A non-finite b or z and b in {0, -1, -2, ...} raise ValueError.
    """
    if not (math.isfinite(b) and cmath.isfinite(z)):
        raise ValueError("hyp0f1_complex needs finite b and z")
    if b <= 0 and b == math.floor(b):
        raise ValueError("0F1(b; z) is undefined at b = 0, -1, -2, ...")
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

