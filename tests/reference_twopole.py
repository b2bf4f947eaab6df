"""The per-term two-pole assembly, as a test reference.

`kernels.twopole` forms all the terms of a family row in one `term` call and
sums the row with `slog_sum_columns`.  This version calls `term` once per
term, with one-element index arrays, collects the rows in lists and sums
them one column at a time with the per-column reference, as the assembly did
term by term; a series column sums its own terms up to its own stop.  Every
element goes through the same additions, so the two must agree bit for bit.
"""

import math

import numpy as np
from reference_logsum import reference_slog_sum_columns

from spikesep.kernels.twopole import _DEEP_NATS, merged_pole_series, power_sign


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
            series_sgs, series_lgs, counts = merged_pole_series(line, grow, q0, j, eps, cols,
                                                                top[cols])
            series = {col: (at, count) for at, (col, count) in enumerate(zip(cols, counts)) if count}
        for col, (at, count) in series.items():
            column = ([[s[at]] for s in series_sgs[:count]], [[g[at]] for g in series_lgs[:count]])
            (out_sign[j - 1, col],), (out_log[j - 1, col],) = reference_slog_sum_columns(*column)
    return out_sign, out_log
