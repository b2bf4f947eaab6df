import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive

from spikesep.jointpdf import (
    EigenConfiguration,
    f00_unitary,
    f01_unitary,
    green_chiral_n1,
    green_function,
    green_gaussian_n1,
    joint_pdf,
    series_f00,
    series_f01,
)
from spikesep.kernels import ShiftedChiral, ShiftedGUE, SpikedLUE
from spikesep.specialfn import log_0f1


def test_f00_n1_is_exponential():
    assert f00_unitary([1.3], [0.7]).to_float() == pytest.approx(math.exp(0.91), rel=1e-14)


def test_f00_scaling_property():
    x = np.array([0.4, 1.1])
    y = np.array([0.2, 0.9])
    a = 0.7
    v1 = f00_unitary(x, a * y).to_float()
    v2 = f00_unitary(a * x, y).to_float()
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_f00_determinant_matches_series():
    x, y = np.array([0.1, 0.3]), np.array([0.2, 0.5])
    assert f00_unitary(x, y).to_float() == pytest.approx(series_f00(x, y), rel=1e-8)
    x3, y3 = np.array([0.1, 0.25, 0.4]), np.array([0.15, 0.3, 0.55])
    assert f00_unitary(x3, y3).to_float() == pytest.approx(series_f00(x3, y3), rel=1e-8)


def test_f01_determinant_matches_series():
    a = 4.5
    x, y = np.array([0.1, 0.3]), np.array([0.2, 0.5])
    assert f01_unitary(a, x, y).to_float() == pytest.approx(series_f01(a, x, y), rel=1e-8)
    x3, y3 = np.array([0.1, 0.25, 0.4]), np.array([0.15, 0.3, 0.55])
    assert f01_unitary(a, x3, y3).to_float() == pytest.approx(series_f01(a, x3, y3), rel=1e-8)


def test_f01_n1_bessel_identity():
    a, z = 3.5, 1.17
    lhs = ive(a - 1.0, 2.0 * math.sqrt(z)) * math.exp(2.0 * math.sqrt(z))
    rhs = z ** ((a - 1) / 2) * math.exp(log_0f1(a, z)) / math.gamma(a)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    det = f01_unitary(a, [z], [1.0]).to_float()
    assert det == pytest.approx(z ** (-(a - 1) / 2) * math.gamma(a) * lhs, rel=1e-10)


def test_permutation_symmetry():
    x = np.array([0.1, 0.6, 1.2])
    y = np.array([0.3, 0.8, 1.5])
    base = f00_unitary(x, y).to_float()
    for perm in itertools.permutations(range(3)):
        assert f00_unitary(x[list(perm)], y).to_float() == pytest.approx(base, rel=1e-12)
        assert f00_unitary(x, y[list(perm)]).to_float() == pytest.approx(base, rel=1e-12)


def test_near_coincident_continuity_and_guard():
    x = np.array([0.3, 0.3 + 1e-4])
    y = np.array([0.2, 0.7])
    det = f00_unitary(x, y).to_float()
    ser = series_f00(x, y)
    assert det == pytest.approx(ser, rel=1e-6)
    with pytest.raises(ValueError):
        f00_unitary(np.array([0.3, 0.3 + 1e-13]), y)


def test_joint_pdf_gaussian_n1():
    model = ShiftedGUE(1, 1, 2.0)
    for lam in (0.5, 2.5):
        v = joint_pdf(model, EigenConfiguration([lam], [2.0]))
        assert v.log_magnitude == pytest.approx(-((lam - 2.0) ** 2), abs=1e-12)


@pytest.mark.parametrize("model, lam, lam0", [
    (ShiftedGUE(4, 2, 20.0), [0.1, 0.5, 20.3], [0.0, 1e-6, 20.0]),
    (SpikedLUE(4, 1.0, 2, 0.5), [0.5, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0 + 1e-6, 2.0, 2.0 + 1e-6, 3.0]),
    (ShiftedChiral(4, 1.0, 2, 5.0), [0.6, 1.7], [5.0, 5.0 + 1e-6]),
], ids=["gue", "lue", "chiral"])
def test_joint_pdf_rejects_a_configuration_of_the_wrong_size(model, lam, lam0):
    with pytest.raises(ValueError, match="eigenvalues"):
        joint_pdf(model, EigenConfiguration(lam, lam0))


def test_joint_pdf_normalized_against_histogram():
    # N=2, r=1, c=1: exact pdf vs a 2-d histogram of sampled ordered pairs
    rng = np.random.default_rng(2024)
    trials = 1_000_000
    z = rng.normal(size=(trials, 4))
    mats = np.empty((trials, 2, 2), dtype=complex)
    mats[:, 0, 0] = z[:, 0] / math.sqrt(2.0)
    mats[:, 1, 1] = z[:, 1] / math.sqrt(2.0) + 1.0
    off = (z[:, 2] + 1j * z[:, 3]) / 2.0
    mats[:, 0, 1] = off
    mats[:, 1, 0] = off.conj()
    eig = np.linalg.eigvalsh(mats)
    edges = np.linspace(-3.5, 4.5, 41)
    hist, _, _ = np.histogram2d(eig[:, 0], eig[:, 1], bins=[edges, edges])
    hist /= hist.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = ShiftedGUE(2, 1, 1.0)
    dens = np.zeros((40, 40))
    for i, a in enumerate(centers):
        for j, b in enumerate(centers):
            if b - a < 1e-6:
                continue
            v = joint_pdf(model, EigenConfiguration([a, b], [0.0, 1.0]))
            dens[i, j] = v.to_float()
    dens /= dens.sum()
    assert float(np.abs(dens - hist).sum()) < 0.05


def test_green_gaussian_n1_closed_form():
    cfg = EigenConfiguration([0.8], [1.5], tau=0.7)
    got = green_function("gaussian", cfg).to_float()
    assert got == pytest.approx(green_gaussian_n1(0.8, 1.5, 0.7), rel=1e-10)
    t = math.exp(-0.7)
    var = 0.5 * (1 - t * t)
    direct = math.exp(-((0.8 - t * 1.5) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
    assert got == pytest.approx(direct, rel=1e-10)


def test_green_semigroup_n1():
    lam0, t1, t2 = 0.8, 0.4, 0.9
    comp = quad(
        lambda mu: green_gaussian_n1(1.1, mu, t1) * green_gaussian_n1(mu, lam0, t2),
        -12, 12, limit=200,
    )[0]
    assert comp == pytest.approx(green_gaussian_n1(1.1, lam0, t1 + t2), rel=1e-8)


def test_green_chiral_semigroup_selects_squared_convention():
    lam0, t1, t2, ap = 0.9, 0.5, 0.8, 1.7
    comp = quad(
        lambda mu: green_chiral_n1(1.2, mu, t1, ap) * green_chiral_n1(mu, lam0, t2, ap),
        0, 14, limit=200,
    )[0]
    assert comp == pytest.approx(green_chiral_n1(1.2, lam0, t1 + t2, ap), rel=1e-8)


def test_green_chiral_unit_mass():
    val = quad(lambda lam: green_chiral_n1(lam, 0.9, 0.7, 1.7), 0, 14)[0]
    assert val == pytest.approx(1.0, abs=1e-10)


def test_green_tau_limits_n2():
    # tau -> 0: config-differenced log-ratio to the sharp front converges
    lam0 = np.array([1.0, 1.0 + 1e-8])
    rr = []
    for tau in (1e-2, 1e-3, 1e-4):
        vals = []
        for lam in (np.array([0.7, 1.4]), np.array([0.5, 1.9])):
            g = green_function("gaussian", EigenConfiguration(lam, lam0, tau))
            front = (-(0.5 / tau) * float(np.sum((np.sort(lam) - np.sort(lam0)) ** 2))
                     + 2.0 * math.log(lam[1] - lam[0]))
            vals.append(g.log_magnitude - front)
        rr.append(vals[0] - vals[1])
    assert abs(rr[2] - rr[1]) < abs(rr[1] - rr[0])
    assert abs(rr[2] - rr[1]) < 1e-3
    # tau -> infinity: equilibrium shape
    xs = np.linspace(-4.0, 4.0, 61)
    vals = np.zeros((61, 61))
    eq = np.zeros_like(vals)
    for i, a in enumerate(xs):
        for j, b in enumerate(xs):
            if b - a < 1e-3:
                continue
            g = green_function("gaussian", EigenConfiguration([a, b], [0.5, 1.5], 20.0))
            vals[i, j] = g.to_float()
            eq[i, j] = (b - a) ** 2 * math.exp(-(a * a + b * b))
    vals /= vals.sum()
    eq /= eq.sum()
    assert float(np.abs(vals - eq).sum()) < 1e-4


def test_green_chiral_n2_relaxes_to_equilibrium():
    # tau -> infinity: the squared-variable Green function tends to
    # (l1 l2)^{2 alpha'} e^{-l1^2 - l2^2} (l2^2 - l1^2)^2, alpha' = alpha + 1/2,
    # its distance shrinking by e^2 per unit of tau (t = e^{-2 tau})
    xs = np.linspace(0.05, 3.5, 40)
    alpha_prime = 1.5
    eq = np.zeros((40, 40))
    for i, a in enumerate(xs):
        for j, b in enumerate(xs[i + 1:], i + 1):
            eq[i, j] = (a * b) ** (2 * alpha_prime) * math.exp(-a * a - b * b) * (b * b - a * a) ** 2
    eq /= eq.sum()
    dists = []
    for tau in (3.0, 4.0, 5.0):
        vals = np.zeros_like(eq)
        for i, a in enumerate(xs):
            for j, b in enumerate(xs[i + 1:], i + 1):
                cfg = EigenConfiguration([a, b], [0.6, 1.7], tau)
                vals[i, j] = green_function("chiral", cfg, alpha=1.0, n_param=3).to_float()
        dists.append(float(np.abs(vals / vals.sum() - eq).sum()))
    assert dists[2] < 1e-4
    for far, near in zip(dists, dists[1:]):
        assert far / near == pytest.approx(math.e**2, rel=0.02)


def test_factorization_second_differences():
    from spikesep.harness.verify import _check_factorization

    ok, worst, tol, detail = _check_factorization()
    assert ok, detail
    assert worst < 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        EigenConfiguration([1.0, 0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        EigenConfiguration([0.5, 1.0], [0.0, 0.0], tau=-1.0)
