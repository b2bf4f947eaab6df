"""Raw Hermite and Laguerre polynomials at small degree, as test references.

The raw polynomials overflow doubles long before the degrees the program
uses, so they are capped and live with the tests that check against them.
"""

import numpy as np

_MAX_RAW_DEGREE = 30


def hermite_raw(p: int, x):
    """Raw Hermite polynomial H_p(x); restricted to p <= 30."""
    if p > _MAX_RAW_DEGREE:
        raise ValueError(f"raw Hermite polynomials capped at degree {_MAX_RAW_DEGREE}")
    x = np.asarray(x, dtype=float)
    h_prev, h = np.ones_like(x), 2.0 * x
    if p == 0:
        return h_prev
    for q in range(1, p):
        h_prev, h = h, 2.0 * x * h - 2.0 * q * h_prev
    return h


def laguerre_raw(p: int, a: float, x):
    """Raw generalized Laguerre L_p^a(x); restricted to p <= 30."""
    if p > _MAX_RAW_DEGREE:
        raise ValueError(f"raw Laguerre polynomials capped at degree {_MAX_RAW_DEGREE}")
    x = np.asarray(x, dtype=float)
    l_prev, l = np.ones_like(x), 1.0 + a - x
    if p == 0:
        return l_prev
    for q in range(1, p):
        l_prev, l = l, ((2 * q + a + 1 - x) * l - (q + a) * l_prev) / (q + 1.0)
    return l
