"""Direct quadrature of the defining contour integrals.

These are verification oracles, valid only at small parameters where the
integrand's magnitude stays within ~1e12 of the result (the closed forms are
the production path at large shift).  Circles around the finite poles are
integrated with the trapezoid rule (spectrally accurate for periodic
integrands), doubling the node count until two consecutive refinements agree.
"""

from __future__ import annotations

import math

import numpy as np

from ..specialfn import hyp0f1_complex

__all__ = [
    "contour_incomplete_hermite_tilde",
    "contour_incomplete_hermite_plain",
    "contour_incomplete_laguerre_tilde",
    "contour_incomplete_laguerre_plain",
    "contour_chiral_q",
]

_CIRCLE_TOL = 1e-11
_CIRCLE_DOUBLINGS = 6


def _circle_quadrature(f, center, radius, nodes):
    """(1/2pi i) * closed-circle integral of f, refined until stable."""
    prev = None
    for _ in range(_CIRCLE_DOUBLINGS + 1):
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        z = center + radius * np.exp(1j * theta)
        dz = 1j * radius * np.exp(1j * theta)
        val = np.mean(f(z) * dz) / 1j
        if prev is not None and abs(val - prev) <= _CIRCLE_TOL * max(abs(val), 1e-300):
            return complex(val)
        prev = val
        nodes *= 2
    return complex(prev)


def contour_incomplete_hermite_tilde(j, x, n, r, c):
    """Integral of e^{-xz - z^2/4} / (z^{n-r} (z+2c)^j) around {0, -2c}."""
    if c <= 0:
        raise ValueError("oracle requires c > 0 (distinct poles)")
    radius = 2.0 * c + 2.0

    def f(z):
        return np.exp(-x * z - z * z / 4.0) / (z ** (n - r) * (z + 2.0 * c) ** j)

    val = _circle_quadrature(f, 0.0, radius, 512)
    return val.real


def contour_incomplete_hermite_plain(j, y, n, r, c):
    """Integral of e^{yw + w^2/4} w^{n-r} (w+2c)^{j-1} dw/(2 pi i) along the imaginary
    axis, w = i t for |t| <= 16, by the trapezoid rule on 8001 nodes."""
    t = np.linspace(-16.0, 16.0, 8001)
    w = 1j * t
    vals = np.exp(y * w + w * w / 4.0) * w ** (n - r) * (w + 2.0 * c) ** (j - 1)
    return complex(np.trapezoid(vals, t) / (2.0 * math.pi)).real


def contour_incomplete_laguerre_tilde(j, x, m, alpha, r, btilde):
    """Integral of e^{-xz}(1+z)^{m+alpha} / (z^{m-r}(z-(btilde-1))^j) around {0, btilde-1}.

    The circle is kept away from the branch point at z = -1, so any real
    alpha > -1 is admissible.
    """
    eps = btilde - 1.0
    if eps == 0.0:
        raise ValueError("oracle requires btilde != 1 (distinct poles)")
    center = eps / 2.0
    if eps < 0:
        # poles at 0 and eps in (-1, 0); a radius-1/2 circle at eps/2 encloses
        # both and stays off the branch point at -1, with margin 1/2 - |eps|/2
        if btilde < 0.2:
            raise ValueError("tilde-family oracle needs btilde >= 0.2 (contour margin)")
        radius = 0.5
    else:
        radius = eps / 2.0 + 0.5

    def f(z):
        return np.exp(-x * z) * (1.0 + z) ** (m + alpha) / (z ** (m - r) * (z - eps) ** j)

    val = _circle_quadrature(f, center, radius, 1024)
    return val.real


def contour_incomplete_laguerre_plain(j, x, m, alpha, r, btilde):
    """Integral of e^{xw} w^{m-r} (w-(btilde-1))^{j-1} / (1+w)^{m+alpha} around {-1}.

    Requires integer alpha (the point w = -1 must be a pole, not a branch point).
    """
    if alpha != int(alpha):
        raise ValueError("plain-family oracle only valid for integer alpha")
    eps = btilde - 1.0

    def f(w):
        return np.exp(x * w) * w ** (m - r) * (w - eps) ** (j - 1) / (1.0 + w) ** (m + int(alpha))

    val = _circle_quadrature(f, -1.0, 0.5, 1024)
    return val.real


def contour_chiral_q(k, x, m, alpha, r, c):
    """Integral of x^a e^{-x}/Gamma(a+1) * e^v 0F1(a+1; -xv) / (v^{m-r}(v+c^2)^k) around {0, -c^2}."""
    if c <= 0:
        raise ValueError("oracle requires c > 0 (distinct poles)")
    a = alpha
    center = -c * c / 2.0
    radius = c * c / 2.0 + 1.0

    def f(v):
        vals = np.array([hyp0f1_complex(a + 1.0, -x * vi) for vi in np.atleast_1d(v)])
        return np.exp(v) * vals / (v ** (m - r) * (v + c * c) ** k)

    val = _circle_quadrature(f, center, radius, 1024)
    prefactor = x**a * math.exp(-x) / math.gamma(a + 1.0)
    return prefactor * val.real
