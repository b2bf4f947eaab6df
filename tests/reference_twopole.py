"""The per-term two-pole assembly, as a test reference.

`kernels.twopole` forms the terms of a family row, or of a block of
merged-pole series rows, in one `term` call and sums the row with
`slog_sum_columns`.  This version calls `term` once per term, with
one-element index arrays, collects the rows in lists and sums them one
column at a time with the per-column reference, as the assembly did term by
term; a series column sums its own terms up to its own stop, read term by
term.  Every element goes through the same additions, so the two must agree
bit for bit.
"""

import itertools
import math

import numpy as np
from reference_logsum import reference_slog_sum_columns

from spikesep.kernels.twopole import _CUTOFF_NATS, _DEEP_NATS, power_sign


def _term(term, q, log_binom, log_power):
    return term(np.array([q]), np.array([log_binom]), np.array([log_power]))[0]


def reference_plain_family(line, q0, r, eps):
    """Drop-in for `twopole.plain_family`."""
    signs, term = line
    out_sign = np.zeros((r, signs.shape[1]), dtype=np.int8)
    out_log = np.full(out_sign.shape, -np.inf)
    for j in range(1, r + 1):
        sgs, lgs = [], []
        for l_ in range(j) if eps.sign else (j - 1,):
            power = j - 1 - l_
            sgs.append(signs[q0 + l_] * power_sign(-eps.sign, power))
            log_power = power * eps.log_magnitude if power else 0.0
            lgs.append(_term(term, q0 + l_, math.log(math.comb(j - 1, l_)), log_power))
        out_sign[j - 1], out_log[j - 1] = reference_slog_sum_columns(np.array(sgs), np.array(lgs))
    return out_sign, out_log


def reference_residue_at_zero(line, q0, j, eps):
    """Terms (sign list, log list) of the residue at 0 of Ttilde_j, one term at a time."""
    signs, term = line
    sgs, lgs = [], []
    for p in range(q0):
        sgs.append(signs[q0 - 1 - p] * (power_sign(-1, j) * power_sign(eps.sign, j + p)))
        lgs.append(_term(term, q0 - 1 - p, math.log(math.comb(j + p - 1, p)),
                         -(j + p) * eps.log_magnitude))
    return sgs, lgs


def reference_merged_pole_series(line, grow, q0, j, eps, cols, ceiling):
    """Drop-in for `twopole.merged_pole_series`, one term per step: the terms
    as (sign list, log list) and each column's count.  eps == 0 gives the one
    term T_{q0+j-1}."""
    signs, term = line
    base, at = 0, cols  # the degree of the first row of `signs`, and its columns
    sgs, lgs = [], []
    counts = np.zeros(cols.size, dtype=int)
    running = np.ones(cols.size, dtype=bool)
    best = prev = np.full(cols.size, -np.inf)
    for t in itertools.count():
        q = q0 + j - 1 + t
        if q == base + signs.shape[0]:
            base, at = line[0].shape[0], slice(None)
            signs, term = grow(cols, q + t)
        sgs.append(signs[q - base, at] * power_sign(eps.sign, t))
        lgs.append(term(np.array([q - base]), np.array([math.log(math.comb(j + t - 1, t))]),
                        np.array([t * eps.log_magnitude if t else 0.0]))[0, at])
        if eps.sign == 0:
            return sgs, lgs, np.ones(cols.size, dtype=int)
        cur = np.where(sgs[-1] != 0, lgs[-1], -np.inf)
        best = np.maximum(best, cur)
        running &= best <= ceiling  # a NaN term or ceiling drops the column too
        if t > 4:
            done = running & (np.maximum(cur, prev) < best - _CUTOFF_NATS)
            counts[done] = t + 1
            running &= ~done
        if not running.any():
            return sgs, lgs, counts
        prev = cur


def reference_completing_family(line, grow, q0, r, eps, residue_at_eps):
    """Drop-in for `twopole.completing_family`: the same per-column choice,
    read from the residue pair's sum against its largest term, and
    per-column sums."""
    npts = line[0].shape[1]
    out_sign = np.zeros((r, npts), dtype=np.int8)
    out_log = np.full(out_sign.shape, -np.inf)
    for j in range(1, r + 1):
        series = {}
        if eps.sign:
            sgs, lgs = residue_at_eps(j)
            zs, zl = reference_residue_at_zero(line, q0, j, eps)
            sgs, lgs = np.array([*sgs, *zs]), np.array([*lgs, *zl])
            top = np.max(np.where(sgs != 0, lgs, -np.inf), axis=0)
            out_sign[j - 1], out_log[j - 1] = reference_slog_sum_columns(sgs, lgs)
            cols = np.flatnonzero(out_log[j - 1] < top - _DEEP_NATS)
        else:
            cols, top = np.arange(npts), np.full(npts, np.inf)
        if cols.size:
            series_sgs, series_lgs, counts = reference_merged_pole_series(line, grow, q0, j, eps,
                                                                          cols, top[cols])
            series = {col: (at, count) for at, (col, count) in enumerate(zip(cols, counts)) if count}
        for col, (at, count) in series.items():
            column = ([[s[at]] for s in series_sgs[:count]], [[g[at]] for g in series_lgs[:count]])
            (out_sign[j - 1, col],), (out_log[j - 1, col],) = reference_slog_sum_columns(*column)
    return out_sign, out_log
