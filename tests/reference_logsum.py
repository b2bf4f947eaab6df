"""The per-column signed log-sum, as a test reference.

`logspace.slog_sum_columns` sums every column of a stack at once, over an
F-ordered copy.  This version takes one column at a time: it shifts the
column by its largest live log, sums the shifted terms with `np.sum` over a
contiguous 1-d copy and takes `math.log` of the total, so the two must agree
bit for bit.
"""

import math

import numpy as np

_NEG_INF = float("-inf")


def reference_slog_sum_columns(signs, logs):
    """Column-wise (sign, log) of a (nterms, npoints) signed log stack."""
    signs = np.asarray(signs)
    logs = np.asarray(logs)
    npts = signs.shape[1]
    out_sign = np.zeros(npts, dtype=np.int8)
    out_log = np.full(npts, _NEG_INF)
    live_logs = np.where(signs != 0, logs, _NEG_INF)
    for idx in range(npts):
        column = live_logs[:, idx]  # every term, zeros included: the count sets the order
        top = column.max(initial=_NEG_INF)
        if top == _NEG_INF:
            continue
        total = np.sum(np.ascontiguousarray(signs[:, idx] * np.exp(column - top)))
        if total != 0.0:
            out_sign[idx] = 1 if total > 0 else -1
            out_log[idx] = math.log(abs(total)) + top
    return out_sign, out_log
