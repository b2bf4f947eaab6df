import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesep.kernels import ShiftedChiral, ShiftedGUE, SpikedLUE
from spikesep.secular import SecularProblem, chiral_secular_eigenvalues, secular_eigenvalues


def test_two_by_two_example():
    roots = secular_eigenvalues(SecularProblem(np.array([1.0, -1.0]), np.array([1.0, 1.0]), 1.0))
    assert roots[0] == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-13)
    assert roots[1] == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-13)


def test_zero_coupling_returns_diag():
    diag = np.array([3.0, 1.0, -2.0])
    out = secular_eigenvalues(SecularProblem(diag, np.array([1.0, 2.0, 3.0]), 0.0))
    assert np.array_equal(out, diag)


def test_random_instance_interlaces_and_matches_dense():
    rng = np.random.default_rng(2)
    diag = np.sort(rng.normal(0, 2, 20))[::-1]
    w = rng.normal(size=20) ** 2
    mu = 1.3
    roots = secular_eigenvalues(SecularProblem(diag, w, mu))
    assert np.all(roots[:-1] > diag[:-1]) and np.all(roots[1:] < diag[:-1])
    assert roots[-1] > diag[-1]
    dense = np.linalg.eigvalsh(np.diag(diag) + mu * np.outer(np.sqrt(w), np.sqrt(w)))[::-1]
    assert np.max(np.abs(roots - dense)) < 1e-10 * np.max(np.abs(dense))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.sampled_from([0.1, 1.0, 10.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_secular_matches_dense_property(n, mu, seed):
    rng = np.random.default_rng(seed)
    diag = np.sort(rng.normal(0, 3, n))[::-1]
    w = rng.normal(size=n) ** 2
    roots = secular_eigenvalues(SecularProblem(diag, w, mu))
    dense = np.linalg.eigvalsh(np.diag(diag) + mu * np.outer(np.sqrt(w), np.sqrt(w)))[::-1]
    scale = max(np.max(np.abs(dense)), 1.0)
    assert np.max(np.abs(roots - dense)) < 1e-9 * scale


def test_negative_coupling_mirrors():
    rng = np.random.default_rng(5)
    diag = np.sort(rng.normal(0, 1, 8))[::-1]
    w = rng.normal(size=8) ** 2
    roots = secular_eigenvalues(SecularProblem(diag, w, -0.8))
    dense = np.linalg.eigvalsh(np.diag(diag) - 0.8 * np.outer(np.sqrt(w), np.sqrt(w)))[::-1]
    assert np.max(np.abs(roots - dense)) < 1e-10


def test_deflation_zero_weights_and_repeats():
    diag = np.array([2.0, 1.0, 1.0, 0.0])
    w = np.array([1.0, 0.5, 0.5, 0.0])
    roots = secular_eigenvalues(SecularProblem(diag, w, 1.0))
    dense = np.linalg.eigvalsh(np.diag(diag) + np.outer(np.sqrt(w), np.sqrt(w)))[::-1]
    assert np.max(np.abs(roots - dense)) < 1e-10
    # the repeated 1.0 stays an eigenvalue; the zero-weight 0.0 stays exactly
    assert np.any(np.abs(roots - 1.0) < 1e-12)
    assert np.any(roots == 0.0)


def test_mixed_sign_weights_rejected():
    with pytest.raises(ValueError):
        SecularProblem(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 1.0)


def test_chiral_zero_coupling():
    sing = np.array([0.5, 1.5, 2.5])
    out = chiral_secular_eigenvalues(sing, mu=0.0, n=5)
    assert np.array_equal(out, sing)


def test_chiral_rank_two_oracle_real_and_complex():
    for xval in (1.4, 0.9 - 0.3j, -0.8 + 1.1j):
        mu = 0.7
        u = np.array([xval / (math.sqrt(2.0) * abs(xval))])
        v = np.array([1.0 / math.sqrt(2.0)])
        roots = chiral_secular_eigenvalues([abs(xval)], u, v, mu, n=1)
        assert roots.shape == (1,)
        assert roots[0] == pytest.approx(abs(xval + mu), rel=1e-12)


def test_chiral_averaged_interlacing():
    sing = np.array([0.7, 1.1, 2.0, 3.3, 4.1])
    roots = chiral_secular_eigenvalues(sing, mu=0.6, n=7)
    assert roots.shape == (5,)
    assert np.all(roots[:-1] > sing[:-1]) and np.all(roots[:-1] < sing[1:])
    assert roots[-1] > sing[-1]


def test_chiral_input_validation():
    with pytest.raises(ValueError):
        chiral_secular_eigenvalues([1.0, -2.0], mu=0.5, n=3)
    with pytest.raises(ValueError):
        chiral_secular_eigenvalues([1.0], u=[1.0], v=None, mu=0.5, n=1)


def test_predictor_gaussian():
    gue = ShiftedGUE(500, 1, 0.0)
    pred = gue.predictor(2.0)
    assert pred.above_threshold and pred.threshold == 1.0
    assert pred.location == pytest.approx(39.5285, abs=1e-4)
    below = gue.predictor(0.5)
    assert not below.above_threshold and below.location is None
    with pytest.raises(ValueError):
        gue.predictor(-0.5)


def test_predictor_wishart():
    # the predictor's spike is btilde, the inverse of the covariance spike s
    lue = SpikedLUE(500, 3.0, 1, 0.5)
    pred = lue.predictor(1.0 / 4.0)
    assert pred.location == pytest.approx(500 * 16.0 / 3.0, rel=1e-12)
    # threshold continuity: the location formula tends to the support edge 4m
    eps = lue.predictor(1.0 / (2.0 + 1e-9))
    assert eps.location == pytest.approx(4 * 500, rel=1e-8)
    at = lue.predictor(1.0 / 2.0)
    assert not at.above_threshold
    for spike in (0.0, -1.0):
        with pytest.raises(ValueError):
            lue.predictor(spike)


def test_predictor_gamma_consistency():
    proportional = SpikedLUE(400, 0.0, 1, 0.5, regime="proportional")
    for s in (2.5, 3.0, 8.0):
        a = SpikedLUE(400, 4.0, 1, 0.5).predictor(1.0 / s).location
        b = proportional.predictor(1.0 / s).location
        assert b == pytest.approx(a, rel=1e-12)
    thr = SpikedLUE(100, 300.0, 1, 0.5, regime="proportional").predictor(1.0 / 1.4)
    assert thr.threshold == pytest.approx(1.5)
    assert not thr.above_threshold
    assert proportional.respike(0.25) == SpikedLUE(400, 0.0, 1, 0.25, regime="proportional")


def test_predictor_chiral():
    chiral = ShiftedChiral(500, 3.0, 1, 0.0)
    pred = chiral.predictor(2.0)
    assert pred.location == pytest.approx(55.90169943749474, rel=1e-12)
    assert not chiral.predictor(1.0).above_threshold
    with pytest.raises(ValueError):
        chiral.predictor(-0.5)
