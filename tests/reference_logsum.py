"""The per-column `math.fsum` signed log-sum, as a test reference.

`logspace.slog_sum_columns` sums wide stacks with a certified vectorised
sum and falls back to `math.fsum` where the certificate fails.  This version
shifts by the column max the same way and reduces every live column with
`math.fsum`, so the two must agree bit for bit.
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
        total = math.fsum(scaled[:, idx].tolist())
        if total != 0.0:
            out_sign[idx] = 1 if total > 0 else -1
            out_log[idx] = math.log(abs(total)) + tops[idx]
    return out_sign, out_log
