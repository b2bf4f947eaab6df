"""The two-pole completion shared by the three exact kernels.

Each spiked kernel is a projection kernel plus a rank-r completion
    K(x, y) = K_bulk(x, y) + sum_{j=1}^r Ttilde_j(x) S_j(y)
whose families come from contour integrals around the two poles {0, eps}:
eps = -2c (shifted GUE), eps = btilde - 1 (spiked LUE), eps = -c^2 (shifted
chiral).  In terms of a family's coefficient lines S_q and T_q every closed
form is one of
    plain family   S_j      = sum_{l<j} C(j-1,l) (-eps)^{j-1-l} S_{q0+l}
    residue at 0            (-1)^j sum_{p<q0} C(j+p-1,p) eps^{-(j+p)} T_{q0-1-p}
    merged poles   Ttilde_j = sum_t C(j+t-1,t) eps^t T_{q0+j-1+t}
or the residue at eps, which each family supplies itself.  Ttilde_j is the
residue pair wherever it cancels little, else the merged-pole series, read
per point from how deep the pair cancels there (`completing_family`); the
series grows its line as far as it needs, and each point stops it at its own
step, so no point's value depends on the other points of its call.

A coefficient line is a pair (signs, term): signs is the (q, npts) sign stack
of T_q, and term(qs, log_binom, log_power) takes (k,) arrays of degrees, log C
and log |eps|^power and returns the (k, npts) block of log(C |eps|^power |T_q|).
The family forms that log, and with it each element's order of floating-point
additions (per-degree scalars enter as a column), so a term has the same bits
however many rows one call forms: a plain-family or residue row forms all its
terms in one call, the merged-pole series a block of line rows.  eps is a
SignedLogValue, so a family hands over log|eps| as it forms it (2 log c for
the chiral family); at eps = 0 each row of either family is one line row.

`spiked_values` is the one evaluation path of the three models.  On the
points x (the diagonal) or [x; y] it asks the model for `_weighted(points)`,
the stack its bulk and families share (for the LUE at rank r >= 1 the
families' two coefficient lines, from which its bulk follows by
Christoffel-Darboux), `_bulk(points, stack, npts)` and
`families(points, stack)`, the (left sign, left log, right sign, right log)
(r, points) stacks, and pairs the families.  `family_value` reads one row
of a family at one point.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import gammaln

from ..logspace import SignedLogValue, slog_sum_columns
from ..specialfn import _read_only
from .common import materialize_columns, pair_and_sum

__all__ = [
    "rising_log",
    "power_sign",
    "bulk_sum",
    "plain_family",
    "residue_at_zero",
    "merged_pole_series",
    "completing_family",
    "family_value",
    "spiked_values",
]

_CUTOFF_NATS = 45.0  # the merged-pole series stops once a term is this far below the largest
_DEEP_NATS = 10.0  # residue points that cancel deeper than this try the merged-pole series


def rising_log(a: int, ls):
    """log of the rising factorial (a)_l = a(a+1)...(a+l-1), a >= 0, over the
    integer array ls: -inf where it vanishes (a = 0 < l), which makes its
    term a zero of any signed log-sum."""
    if a == 0:
        return np.where(ls == 0, 0.0, -np.inf)
    return gammaln(a + ls) - gammaln(a)


def _leibniz_terms(j):
    """The terms of a triple Leibniz rule for a (j-1)-th derivative: index
    arrays i, k, l with i + k + l = j - 1 (i, then k, ascending) and
    -log(i! k! l!) in that order of subtraction."""
    i, k = np.nonzero(np.add.outer(np.arange(j), np.arange(j)) < j)
    l_ = j - 1 - i - k
    return i, k, l_, -gammaln(i + 1.0) - gammaln(k + 1.0) - gammaln(l_ + 1.0)


def power_sign(sign: int, k: int) -> int:
    """sign**k for sign in {-1, +1}."""
    return -1 if sign < 0 and k % 2 else 1


def bulk_sum(stack, n_bulk, npts):
    """(sign, log) of the projection kernel sum_{p<n_bulk} f_p(x) f_p(y) at npts pairs.

    `stack` is the (rows, points) sign/log stack of f_0, f_1, ... on the
    points x (the diagonal, npts columns, y = x) or [x; y] (2 npts columns,
    column i of x paired with column i of y); the sum reads its first n_bulk
    rows.
    """
    s, lg = stack
    x, y = slice(npts), slice(lg.shape[1] - npts, None)
    return pair_and_sum(s[:n_bulk, x], lg[:n_bulk, x], s[:n_bulk, y], lg[:n_bulk, y])


def plain_family(line, q0, r, eps):
    """(r, npts) sign/log stacks of S_j, j = 1..r."""
    if not eps.sign:
        return _line_rows(line, q0, r)
    signs, term = line
    out_sign = np.zeros((r, signs.shape[1]), dtype=np.int8)
    out_log = np.full(out_sign.shape, -np.inf)
    # row j's terms l < j, laid out row after row
    pairs = [(j - 1, l_) for j in range(1, r + 1) for l_ in range(j)]
    qs = np.array([q0 + l_ for _, l_ in pairs], dtype=int)
    powers = np.array([i - l_ for i, l_ in pairs], dtype=int)
    log_binom = np.array([math.log(math.comb(i, l_)) for i, l_ in pairs])
    log_power = powers * eps.log_magnitude
    sign_col = _power_signs(-eps.sign, powers)
    for j in range(1, r + 1):
        row = slice(j * (j - 1) // 2, j * (j + 1) // 2)
        out_sign[j - 1], out_log[j - 1] = slog_sum_columns(
            signs[qs[row]] * sign_col[row], term(qs[row], log_binom[row], log_power[row])
        )
    return out_sign, out_log


def _line_rows(line, q0, r):
    """Either family at eps == 0: (r, npts) sign/log stacks whose row j is the
    line's row q0+j-1, read as a one-term sum (a zero as (0, -inf))."""
    signs, term = line
    qs = np.arange(q0, q0 + r)
    sign, log = slog_sum_columns(signs[qs].reshape(1, -1),
                                 term(qs, np.zeros(r), np.zeros(r)).reshape(1, -1))
    return sign.reshape(r, -1), log.reshape(r, -1)


def residue_at_zero(line, q0, j, eps):
    """(q0, npts) sign/log blocks of the residue at 0 of Ttilde_j, one row per p < q0."""
    signs, term = line
    ps = np.arange(q0)
    qs = q0 - 1 - ps
    sgs = signs[qs] * (power_sign(-1, j) * _power_signs(eps.sign, j + ps))
    return sgs, term(qs, _log_binoms(j, q0), -(j + ps) * eps.log_magnitude)


@functools.lru_cache(maxsize=64)
def _log_binoms(j, count):
    """log C(j+p-1, p) for p < count, read-only: the residue rows of every call share it."""
    return _read_only(np.array([math.log(math.comb(j + p - 1, p)) for p in range(count)]))[0]


_ALTERNATING = np.array([[1], [-1]], dtype=np.int8)


def _power_signs(sign, ks):
    """sign**k over the integer array ks as an int8 column, sign in {-1, +1}."""
    return _ALTERNATING[ks & (sign < 0)]


def merged_pole_series(line, grow, q0, j, eps, cols, ceiling):
    """Terms (signs, logs), (terms, cols), of the merged-pole series for
    Ttilde_j (eps != 0) at the columns cols of `line`, and the number of
    terms each column sums (0 where it is dropped).

    The terms come one block of line rows per `term` call: first the rows
    `line` holds, then, while a column runs on, the rows `grow(cols, rows)`
    gives past the end of `line` up to `rows` on the columns, the series'
    rows doubled each time.  A column is dropped once its running largest
    term exceeds `ceiling` there (the residue pair's largest term, whose
    rounding error is then the smaller).  Each column stops at its own step:
    the first, past its first five terms, at which its last two terms lie
    _CUTOFF_NATS below its largest (two, because a line can vanish at every
    other degree, as H_q(0) does for odd q).  It sums its terms up to that
    step, so its value does not depend on the other columns of the call.
    """
    first = q0 + j - 1  # the degree of term t is first + t
    (signs, term), base, at = line, 0, cols  # the degree of row 0 of `signs`, and its columns
    sgs, lgs = np.empty((0, cols.size), dtype=np.int8), np.empty((0, cols.size))
    while True:
        ts = np.arange(sgs.shape[0], base + signs.shape[0] - first)
        qs = first + ts - base
        log_binom = np.array([math.log(math.comb(j + t - 1, t)) for t in ts.tolist()])
        sgs = np.concatenate((sgs, signs[qs][:, at] * _power_signs(eps.sign, ts)))
        lgs = np.concatenate((lgs, term(qs, log_binom, ts * eps.log_magnitude)[:, at]))
        cur = np.where(sgs != 0, lgs, -np.inf)
        best = np.maximum.accumulate(cur, axis=0)
        ended = ~(best <= ceiling)  # dropped; a NaN term or ceiling drops the column too
        ended[5:] |= np.maximum(cur[5:], cur[4:-1]) < best[5:] - _CUTOFF_NATS  # stopped
        if ended.any(axis=0).all():
            end = ended.argmax(axis=0)  # a column ends dropped where its best is past the ceiling
            return sgs, lgs, np.where(best[end, np.arange(cols.size)] <= ceiling, end + 1, 0)
        base, at = line[0].shape[0], slice(None)
        signs, term = grow(cols, first + 2 * sgs.shape[0])


def completing_family(line, grow, q0, r, eps, residue_at_eps):
    """(r, npts) sign/log stacks of Ttilde_j, j = 1..r, from the line T_q.

    Each point sums the residue pair, `residue_at_eps(j)` (the family's own
    signs and logs) stacked on the residue at 0.  Where that sum lies more
    than _DEEP_NATS below the pair's largest term, the merged-pole series
    runs too, and the point keeps the branch whose largest term is the
    smaller.  `grow(cols, rows)` gives the line's rows past those of `line`,
    up to `rows`, on the columns cols.
    """
    if not eps.sign:
        return _line_rows(line, q0, r)
    npts = line[0].shape[1]
    out_sign = np.zeros((r, npts), dtype=np.int8)
    out_log = np.full(out_sign.shape, -np.inf)
    for j in range(1, r + 1):
        sgs, lgs = residue_at_eps(j)
        zs, zl = residue_at_zero(line, q0, j, eps)
        sgs, lgs = np.concatenate((sgs, zs)), np.concatenate((lgs, zl))
        out_sign[j - 1], out_log[j - 1] = slog_sum_columns(sgs, lgs)
        zero = sgs == 0
        top = (np.where(zero, -np.inf, lgs) if zero.any() else lgs).max(axis=0)
        del sgs, lgs, zs, zl, zero  # the residue block is not held through the series
        cols = np.flatnonzero(out_log[j - 1] < top - _DEEP_NATS)  # a sum of 0 is deep
        if cols.size:
            ssg, slg, counts = merged_pole_series(line, grow, q0, j, eps, cols, top[cols])
            for count in np.unique(counts[counts > 0]).tolist():
                at = counts == count
                out_sign[j - 1, cols[at]], out_log[j - 1, cols[at]] = slog_sum_columns(
                    ssg[:count, at], slg[:count, at])
    return out_sign, out_log


def family_value(model, kinds, kind, j, x) -> SignedLogValue:
    """Row j of the family `kind` (one of the pair `kinds`) of `model` at the point x."""
    if not 1 <= j <= model.r:
        raise ValueError("family index must satisfy 1 <= j <= r")
    if kind not in kinds:
        raise ValueError(f"kind must be {kinds[0]!r} or {kinds[1]!r}")
    stacks = model.families(np.array([float(x)]))
    at = 2 * kinds.index(kind)
    return SignedLogValue.from_log(int(stacks[at][j - 1, 0]), float(stacks[at + 1][j - 1, 0]))


def spiked_values(model, x, y=None, wx=0.0, wy=0.0, bulk=True):
    """bulk + sum_j left_j(x) right_j(y) e^{wx + wy} at the pairs (x, y), materialized.

    x and y are 1-d, column i of x paired with column i of y; y=None takes
    the diagonal.  The bulk (left out by bulk=False) enters the family sum in
    a second signed log-sum; with r == 0 it is the value (0 without it) and
    the families are not built.  A value beyond a double raises OverflowError.
    """
    npts = x.size
    points = x if y is None else np.concatenate([x, y])
    stack = model._weighted(points)
    if model.r == 0:  # no families: the bulk alone, or nothing
        return materialize_columns(*model._bulk(points, stack, npts)) if bulk else np.zeros(npts)
    terms = model._bulk(points, stack, npts) if bulk else None
    ls, ll, rs, rl = model.families(points, stack)
    if y is not None:
        ls, ll, rs, rl = ls[:, :npts], ll[:, :npts], rs[:, npts:], rl[:, npts:]
    sign, log = pair_and_sum(ls, ll + wx, rs, rl + wy)
    if bulk:
        sign, log = slog_sum_columns(np.vstack([terms[0], sign]), np.vstack([terms[1], log]))
    return materialize_columns(sign, log)
