"""The per-row masked three-term recurrence and its per-row steps, as a test reference.

`specialfn._signlog_store` forms each row in place from a coefficient block
and takes signs and logs once over the whole stack at the end; this version
calls a `step(p, v_p, v_{p-1}, x)` closure per row, takes signs and logs row
by row on the nonzero entries and tests every row for a rescale.  The three
steps are the closed forms the recurrences evaluate, with the same operation
order, so the public recurrences must agree with `ReferenceRecurrences` bit
for bit.
"""

import math

import numpy as np
from scipy.special import gammaln

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


def hermite_step(p, v, v1, xs):
    if p == 0:
        return math.sqrt(2.0) * xs * v
    return math.sqrt(2.0 / (p + 1)) * xs * v - math.sqrt(p / (p + 1.0)) * v1


def laguerre_step(a):
    def step(p, v, v1, xs):
        c1 = (2 * p + a + 1.0 - xs) / math.sqrt((p + 1.0) * (p + 1.0 + a))
        c2 = math.sqrt(p * (p + a) / ((p + 1.0) * (p + 1.0 + a)))
        return c1 * v - c2 * v1

    return step


def line_step(big_m):
    def step(q, v, v1, xs):
        if q == 0:
            return (big_m - xs) * v
        return ((big_m - xs - q) * v - xs * v1) / (q + 1.0)

    return step


class ReferenceRecurrences:
    """The public recurrences of `specialfn`, same names and arguments, run
    on `reference_signlog_store` with the closed-form steps; `events`
    collects the rescales they fire."""

    def __init__(self):
        self.events = []

    def hermite_weighted_signlog(self, n, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        log0 = -0.25 * math.log(math.pi) - 0.5 * x * x
        return reference_signlog_store(n, x, log0, hermite_step, self.events)

    def laguerre_weighted_signlog(self, n, a, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        log0 = 0.5 * a * np.log(x) - 0.5 * x - 0.5 * gammaln(a + 1.0)
        return reference_signlog_store(n, x, log0, laguerre_step(a), self.events)

    def laguerre_line_signlog(self, n, big_m, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return reference_signlog_store(n, x, np.zeros(x.size), line_step(big_m), self.events)
