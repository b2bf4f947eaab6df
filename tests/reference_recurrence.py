"""The per-row masked three-term recurrence, as a test reference.

`specialfn._signlog_store` stores carriers and takes signs and logs once at
the end; this version takes them row by row on the nonzero entries and
tests every row for a rescale.  The arithmetic is the same, so the two must
agree bit for bit.
"""

import math

import numpy as np

_RESCALE_LO = 1e-250
_RESCALE_HI = 1e250
_RESCALE_LOG = 600.0
_RESCALE_UP = math.exp(_RESCALE_LOG)
_RESCALE_DOWN = math.exp(-_RESCALE_LOG)


def reference_signlog_store(n, x, log0, step, events=None):
    """Drop-in for `specialfn._signlog_store`; appends "up"/"down" to `events`
    each time a rescale branch fires."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    npts = x.size
    signs = np.zeros((n, npts), dtype=np.int8)
    logs = np.full((n, npts), -np.inf)
    offset = np.array(log0, dtype=float)
    v_prev = np.zeros(npts)
    v_curr = np.ones(npts)
    for p in range(n):
        nz = v_curr != 0.0
        signs[p, nz] = np.sign(v_curr[nz]).astype(np.int8)
        logs[p, nz] = np.log(np.abs(v_curr[nz])) + offset[nz]
        if p == n - 1:
            break
        v_next = step(p, v_curr, v_prev, x)
        v_prev, v_curr = v_curr, v_next
        mag = np.maximum(np.abs(v_curr), np.abs(v_prev))
        small = (mag > 0) & (mag < _RESCALE_LO)
        if np.any(small):
            v_curr[small] *= _RESCALE_UP
            v_prev[small] *= _RESCALE_UP
            offset[small] -= _RESCALE_LOG
            if events is not None:
                events.append("up")
        big = mag > _RESCALE_HI
        if np.any(big):
            v_curr[big] *= _RESCALE_DOWN
            v_prev[big] *= _RESCALE_DOWN
            offset[big] += _RESCALE_LOG
            if events is not None:
                events.append("down")
    return signs, logs
