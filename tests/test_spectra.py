import functools
import math

import mpmath
import numpy as np
import pytest

from spikesep.spectra import (
    DensityCurve,
    MarchenkoPasturFixedDiff,
    MarchenkoPasturGamma,
    Semicircle,
    density,
    point_mass,
    stieltjes,
    support,
)

ALL_LAWS = [Semicircle(9), MarchenkoPasturFixedDiff(6), MarchenkoPasturGamma(2.5)]


@functools.lru_cache(maxsize=None)
def _leggauss(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count (read-only)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _quad_density(law, f, nodes=4000):
    """Gauss-Legendre after an edge-flattening substitution."""
    x_, w_ = _leggauss(nodes)
    lo, hi = support(law)
    if isinstance(law, Semicircle):
        th = 0.5 * math.pi * x_
        wth = 0.5 * math.pi * w_
        pts = law.edge * np.sin(th)
        jac = law.edge * np.cos(th)
    else:
        th = 0.5 * math.pi * (x_ + 1.0)
        wth = 0.5 * math.pi * w_
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        pts = mid + half * np.cos(th)
        jac = half * np.sin(th)
    return float(np.sum(wth * f(pts) * density(law, pts) * jac))


def test_semicircle_density_values():
    law = Semicircle(9)
    j = law.edge
    assert density(law, 0.0) == pytest.approx(2 * 9 / (math.pi * j), rel=1e-14)
    assert density(law, j) == 0.0
    assert density(law, j + 0.5) == 0.0
    assert density(law, -j - 0.1) == 0.0


def test_semicircle_mass_and_moments():
    law = Semicircle(7)
    assert _quad_density(law, lambda x: np.ones_like(x)) == pytest.approx(7.0, rel=1e-12)


def test_mp_gamma_mass_with_point_mass():
    law = MarchenkoPasturGamma(2.0)
    ac = _quad_density(law, lambda x: np.ones_like(x))
    loc, weight = point_mass(law)
    assert loc == 0.0 and weight == pytest.approx(0.5, rel=1e-14)
    assert ac + weight == pytest.approx(1.0, abs=1e-8)


def test_mp_fixed_diff_unit_mass():
    law = MarchenkoPasturFixedDiff(5)
    assert _quad_density(law, lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-8)


def test_stieltjes_semicircle_edge_value():
    law = Semicircle(11)
    j = law.edge
    assert stieltjes(law, j * (1.0 + 1e-15)) == pytest.approx(2 * 11 / j, rel=1e-6)
    with pytest.raises(ValueError):
        stieltjes(law, 0.5 * j)


def test_mp_gamma_reduces_to_fixed_diff_at_gamma_one():
    m = 4
    fd = MarchenkoPasturFixedDiff(m)
    g1 = MarchenkoPasturGamma(1.0)
    for z in (4.3, 6.0, 11.0):
        # scaled variable: z_fd = m * z, transform carries a 1/m Jacobian
        assert stieltjes(g1, z) == pytest.approx(m * stieltjes(fd, m * z), rel=1e-13)


def test_mp_gamma_moments():
    # the second moment of gamma * (a.c. part), a unit-mass density
    law = MarchenkoPasturGamma(2.0)
    quad = law.gamma * _quad_density(law, lambda x: x**2)
    assert quad == pytest.approx(6.0, abs=1e-8)


@pytest.mark.parametrize("law", ALL_LAWS)
def test_stieltjes_matches_quadrature(law):
    _, hi = support(law)
    for factor in (1.05, 1.5, 3.0):
        z = factor * hi
        quad = _quad_density(law, lambda x: 1.0 / (z - x))
        _, weight = point_mass(law)
        quad += weight / z
        assert stieltjes(law, z) == pytest.approx(quad, rel=1e-10)


def _mp_stieltjes(law, z):
    """The transforms' closed forms at 50 digits."""
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        if isinstance(law, Semicircle):
            j = mpmath.sqrt(2 * law.n)
            return float(2 * law.n * (z - mpmath.sign(z) * mpmath.sqrt(z * z - j * j)) / (j * j))
        if isinstance(law, MarchenkoPasturFixedDiff):
            return float((1 - mpmath.sqrt(1 - 4 * law.m / z)) / (2 * law.m))
        g = mpmath.mpf(law.gamma)
        disc = 1 - 2 * (g + 1) / z + ((g - 1) / z) ** 2
        return float((1 - 1 / g) / z + (1 - (g - 1) / z - mpmath.sqrt(disc)) / (2 * g))


@pytest.mark.parametrize("law", ALL_LAWS)
def test_stieltjes_far_from_the_support_against_mpmath(law):
    # 1 - sqrt(1 - edge/z) cancels as z grows; the rationalised forms do not
    lo, hi = support(law)
    for z in (1e4 * hi, 1e8 * hi, -1e8 * hi, 1e12 * hi):
        assert stieltjes(law, z) == pytest.approx(_mp_stieltjes(law, z), rel=1e-13, abs=0), z


def test_stieltjes_rejects_the_atom_and_nan():
    with pytest.raises(ValueError):
        stieltjes(MarchenkoPasturGamma(2.0), 0.0)
    for law in ALL_LAWS:
        with pytest.raises(ValueError):
            stieltjes(law, math.nan)


@pytest.mark.parametrize("law", ALL_LAWS)
def test_stieltjes_vanishes_at_infinity(law):
    assert stieltjes(law, math.inf) == 0.0
    assert stieltjes(law, -math.inf) == 0.0


@pytest.mark.parametrize("law", ALL_LAWS)
def test_density_rejects_nan(law):
    _, hi = support(law)
    with pytest.raises(ValueError):
        density(law, math.nan)
    with pytest.raises(ValueError):
        density(law, np.array([0.5 * hi, math.nan]))


@pytest.mark.parametrize("law", ALL_LAWS)
def test_density_nonnegative_and_supported(law):
    lo, hi = support(law)
    inside = np.linspace(lo + 1e-9, hi - 1e-9, 1001)
    assert np.all(density(law, inside) >= 0.0)
    outside = np.array([lo - 0.5, hi + 0.5, hi * 3.0])
    assert np.all(density(law, outside) == 0.0)


def test_density_curve_validation():
    with pytest.raises(ValueError):
        DensityCurve(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        DensityCurve(np.array([0.0, 1.0]), np.array([-0.1, 0.0]))
    with pytest.raises(ValueError):
        DensityCurve(np.array([0.0, 1.0]), np.array([math.nan, 0.0]))
    with pytest.raises(ValueError):
        DensityCurve(np.array([0.0, math.nan, 1.0]), np.zeros(3))
    curve = DensityCurve(np.linspace(0, 1, 5), np.ones(5), {"mass": 1.0})
    assert curve.mass() == pytest.approx(1.0)


def test_invalid_laws():
    with pytest.raises(ValueError):
        Semicircle(0)
    with pytest.raises(ValueError):
        MarchenkoPasturGamma(0.5)
