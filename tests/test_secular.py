import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_secular import reference_chiral_rank_two, reference_secular_eigenvalues

from spikesep import secular
from spikesep.kernels import ShiftedChiral, ShiftedGUE, SpikedLUE
from spikesep.secular import SecularProblem, chiral_secular_eigenvalues, secular_eigenvalues


def _rank_two_instance(rng, n, m):
    """X (n x m, complex Gaussian) and unit e, f: the ascending singular values
    of X with their u, v and zero-block components, mu, and the dense X + mu e f^*."""
    x = (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))) / math.sqrt(2.0)
    e = rng.normal(size=n) + 1j * rng.normal(size=n)
    f = rng.normal(size=m) + 1j * rng.normal(size=m)
    e /= np.linalg.norm(e)
    f /= np.linalg.norm(f)
    mu = float(rng.uniform(1.0, 4.0))
    left, sing, right_h = np.linalg.svd(x)
    u = (e.conj() @ left[:, :m])[::-1] / math.sqrt(2.0)
    v = (f.conj() @ right_h.conj().T)[::-1] / math.sqrt(2.0)
    zero = e.conj() @ left[:, m:]
    return sing[::-1], u, v, mu, zero, x + mu * np.outer(e, f.conj())


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


def _dense_rank_one(diag, w, mu):
    return np.linalg.eigvalsh(np.diag(diag) + mu * np.outer(np.sqrt(w), np.sqrt(w)))[::-1]


def _assert_matches_dense(roots, dense):
    assert roots.shape == dense.shape
    assert np.max(np.abs(roots - dense)) <= 1e-12 * max(float(np.max(np.abs(dense))), 1.0)


@pytest.mark.parametrize("n", [1, 2, 50, 500, 2000])
@pytest.mark.parametrize("mu", [0.1, -0.1, 1.0, -1.0, 10.0, -10.0])
def test_rank_one_matches_dense(n, mu):
    rng = np.random.default_rng([n, 3])
    diag = rng.normal(0, 3, n)
    w = rng.normal(size=n) ** 2
    _assert_matches_dense(secular_eigenvalues(SecularProblem(diag, w, mu)),
                          _dense_rank_one(diag, w, mu))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.sampled_from([0.1, -0.1, 1.0, -1.0, 10.0, -10.0]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_secular_matches_dense_property(n, mu, repeats, zeros, tiny, seed):
    rng = np.random.default_rng(seed)
    diag = rng.normal(0, 3, n)
    w = rng.normal(size=n) ** 2
    if repeats:
        diag[rng.integers(0, n, n // 3)] = diag[rng.integers(0, n, n // 3)]
    if zeros:
        w[rng.integers(0, n, 1 + n // 4)] = 0.0
    if tiny:
        w[rng.integers(0, n, 1 + n // 4)] *= 1e-20
    roots = secular_eigenvalues(SecularProblem(diag, w, mu))
    _assert_matches_dense(roots, _dense_rank_one(diag, w, mu))
    if np.all(w > 1e-12) and np.unique(diag).size == n:
        poles = np.sort(diag)[::-1]
        upper, lower = (roots, poles) if mu > 0 else (poles, roots)
        assert np.all(upper > lower) and np.all(lower[:-1] > upper[1:])


def test_overflowing_bracket_raises():
    # mu * sum(w) = 1e400 is beyond a double: the largest root cannot be bracketed
    with pytest.raises(OverflowError):
        secular_eigenvalues(SecularProblem([3.0, 2.0, 1.0], [1e200, 1.0, 1.0], 1e200))


def test_huge_coupling_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = secular_eigenvalues(SecularProblem([3.0, 2.0, 1.0], [1.0, 1.0, 1.0], 1e300))
    # 1/mu = 1e-300 leaves sum_j 1/(lambda - a_j) = 0 between the poles: 2 +- 1/sqrt(3)
    third = 1.0 / math.sqrt(3.0)
    assert roots == pytest.approx([3e300, 2.0 + third, 2.0 - third], rel=1e-14)



@pytest.mark.parametrize("mu", [1e-300, -1e-300, 1e-200])
def test_tiny_coupling_without_warnings(mu):
    # each root lies within 1e-300 of its pole: w/d^2 overflows there, and the
    # model step would meet inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = secular_eigenvalues(SecularProblem([3.0, 2.0, 1.0], [1.0, 1.0, 1.0], mu))
    dense = np.linalg.eigvalsh(np.diag([3.0, 2.0, 1.0]) + mu * np.ones((3, 3)))[::-1]
    assert np.max(np.abs(roots - dense)) < 1e-12 * 3.0

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


@pytest.mark.parametrize("diag, weights, mu", [
    ([1.0, np.nan], [1.0, 1.0], 1.0),
    ([1.0, -np.inf], [1.0, 1.0], 1.0),
    ([1.0, 0.0], [1.0, np.inf], 1.0),
    ([1.0, 0.0], [np.nan, 1.0], 1.0),
    ([1.0, 0.0], [1.0, 1.0], np.nan),
    ([1.0, 0.0], [1.0, 1.0], np.inf),
])
def test_non_finite_secular_inputs_rejected(diag, weights, mu):
    with pytest.raises(ValueError, match="finite"):
        SecularProblem(diag, weights, mu)


@pytest.mark.parametrize("n", [2, 50, 500])
@pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
def test_rank_one_bit_identical_to_scalar_reference(n, mu):
    rng = np.random.default_rng([n, int(10 * mu)])
    diag = np.sort(rng.normal(0, 3, n))[::-1]
    w = rng.normal(size=n) ** 2
    roots = secular_eigenvalues(SecularProblem(diag, w, mu))
    assert np.array_equal(roots, reference_secular_eigenvalues(diag, w, mu))


@pytest.mark.parametrize("mu", [0.7, -0.7])
def test_rank_one_deflation_bit_identical_to_scalar_reference(mu):
    # a run of three equal poles merges its weights in order; zero weights stay exact
    diag = np.array([4.0, 2.5, 2.5, 2.5, 1.0, 0.0, -1.0, -1.0])
    w = np.array([0.3, 0.1, 0.7, 0.2, 0.0, 1.1, 0.4, 0.0])
    roots = secular_eigenvalues(SecularProblem(diag, w, mu))
    assert np.array_equal(roots, reference_secular_eigenvalues(diag, w, mu))


@pytest.mark.parametrize("m", [1, 5, 100])
@pytest.mark.parametrize("zero_block", [False, True])
def test_rank_two_bit_identical_to_scalar_reference(m, zero_block):
    n = m + 3 if zero_block else m
    sing, u, v, mu, zero, dense = _rank_two_instance(np.random.default_rng([m, n]), n, m)
    zero = zero if zero_block else None
    roots = chiral_secular_eigenvalues(sing, u, v, mu, n=n, zero_components=zero)
    assert roots.shape == (m,)
    assert np.array_equal(roots, reference_chiral_rank_two(sing, u, v, mu, zero_components=zero))
    ref = np.sort(np.linalg.svd(dense, compute_uv=False))
    assert np.max(np.abs(roots - ref)) <= 1e-12 * np.max(ref)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0, 3]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rank_two_matches_dense_svd_property(m, extra, seed):
    n = m + extra
    sing, u, v, mu, zero, dense = _rank_two_instance(np.random.default_rng(seed), n, m)
    roots = chiral_secular_eigenvalues(sing, u, v, mu, n=n, zero_components=zero)
    ref = np.sort(np.linalg.svd(dense, compute_uv=False))
    assert np.max(np.abs(roots - ref)) < 1e-9 * np.max(ref)


def _rank_two_degenerate(case, zero_block):
    """Rank-two inputs of one degenerate kind, with X's singular vectors the unit
    vectors: the singular values (ascending), u, v, mu, the zero-block components
    (or None) and the dense X + mu e f^*, e and f read off u, v and the zero block."""
    m = 1 if case == "single untouched pair" else 5
    rng = np.random.default_rng([m, len(case), zero_block])
    sing = np.sort(rng.uniform(0.5, 3.0, m))
    u, v, zero = ((rng.normal(size=k) + 1j * rng.normal(size=k)) / 2.0 for k in (m, m, 3))
    mu = 1.7
    if case in ("untouched pair", "single untouched pair"):
        u[m // 2] = v[m // 2] = 0.0
    elif case == "u = v":
        u[1] = v[1]
    elif case == "u = -v":
        u[3] = -v[3]
    elif case == "repeated pair":
        sing[2] = sing[1]
    elif case == "all equal":
        sing[:] = 1.3
    elif case == "tiny components":
        u[[1, 3]] *= 1e-12
        v[[1, 3]] *= 1e-12
    elif case == "negative mu":
        mu = -1.7
    zero = zero if zero_block else None
    x = np.zeros((m + 3 * zero_block, m), dtype=complex)
    x[:m] = np.diag(sing)
    e = np.concatenate([math.sqrt(2.0) * u.conj(), zero.conj() if zero_block else []])
    f = math.sqrt(2.0) * v.conj()
    return sing, u, v, mu, zero, x + mu * np.outer(e, f.conj())


@pytest.mark.parametrize("zero_block", [False, True])
@pytest.mark.parametrize("case", ["untouched pair", "single untouched pair", "u = v", "u = -v",
                                  "repeated pair", "all equal", "tiny components",
                                  "negative mu"])
def test_rank_two_degenerate_inputs_match_dense_svd(case, zero_block):
    """Untouched pairs, u_j = +-v_j, repeated singular values and tiny components
    put a root on a pole or leave a pole without weight in one of the two updates."""
    sing, u, v, mu, zero, dense = _rank_two_degenerate(case, zero_block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = chiral_secular_eigenvalues(sing, u, v, mu, n=dense.shape[0], zero_components=zero)
    ref = np.sort(np.linalg.svd(dense, compute_uv=False))
    assert np.max(np.abs(roots - ref)) < 1e-9 * np.max(ref)
    assert np.array_equal(roots, reference_chiral_rank_two(sing, u, v, mu, zero_components=zero))


def test_tiny_weights_match_dense_and_interlace():
    n = 500
    rng = np.random.default_rng(17)
    diag = np.sort(rng.normal(0, 3, n))[::-1]
    w = rng.normal(size=n) ** 2
    w[[3, 250, 498]] *= 1e-20
    for mu in (0.1, 1.0, 10.0):
        roots = secular_eigenvalues(SecularProblem(diag, w, mu))
        dense = np.linalg.eigvalsh(np.diag(diag) + mu * np.outer(np.sqrt(w), np.sqrt(w)))[::-1]
        assert np.max(np.abs(roots - dense)) < 1e-10 * np.max(np.abs(dense))
        # a weight of 1e-20 puts its root within rounding of the pole: interlacing
        # holds, but not always strictly
        assert np.all(roots >= diag) and np.all(roots[1:] <= diag[:-1])


def test_secular_memory_is_bounded_by_blocks():
    """Roots are solved over blocks of 2**15 entries, not an n x n evaluation."""
    n = 2000
    rng = np.random.default_rng(8)
    problem = SecularProblem(np.sort(rng.normal(0, 3, n))[::-1], rng.normal(size=n) ** 2, 1.0)
    secular_eigenvalues(problem)
    tracemalloc.start()
    try:
        secular_eigenvalues(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_rank_one_evaluations_per_root(monkeypatch):
    """The middle-way step settles a root in about five evaluations of the
    secular function, the midpoint's included; seven leaves room and still
    fails a bisection-and-Newton solver, which takes about 21."""
    n = 2000
    rng = np.random.default_rng(8)
    problem = SecularProblem(np.sort(rng.normal(0, 3, n))[::-1], rng.normal(size=n) ** 2, 1.0)
    points = []
    by_blocks = secular._by_blocks

    def spy(fn, x, width):
        points.append(x.size)
        return by_blocks(fn, x, width)

    monkeypatch.setattr(secular, "_by_blocks", spy)
    secular_eigenvalues(problem)
    assert sum(points) <= 7 * n


def _rank_two_large(m, extra):
    """Singular values and components of an m-column rank-two problem, without its SVD."""
    rng = np.random.default_rng([m, extra])
    components = [(rng.normal(size=k) + 1j * rng.normal(size=k)) / math.sqrt(2 * (m + extra))
                  for k in (m, m, extra)]
    return (np.sort(rng.uniform(0.1, 3.0 * math.sqrt(m), m)), *components)


def test_rank_two_memory_is_bounded_by_blocks():
    """The projection onto the first update's eigenvectors runs over blocks too,
    not over a (2m+1) x (2m+1) matrix of gaps (24 MiB at m = 1000)."""
    m, n = 1000, 1003
    sing, u, v, zero = _rank_two_large(m, n - m)
    chiral_secular_eigenvalues(sing, u, v, 2.0, n=n, zero_components=zero)
    tracemalloc.start()
    try:
        chiral_secular_eigenvalues(sing, u, v, 2.0, n=n, zero_components=zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_rank_two_evaluations_per_root(monkeypatch):
    """Two rank-one updates of 2m+1 roots each, at most seven evaluations a root
    as in the rank-one test, and one projection of each first-update root."""
    m, n = 100, 103
    sing, u, v, zero = _rank_two_large(m, n - m)
    points = []
    by_blocks = secular._by_blocks

    def spy(fn, x, width):
        points.append(x.size)
        return by_blocks(fn, x, width)

    monkeypatch.setattr(secular, "_by_blocks", spy)
    chiral_secular_eigenvalues(sing, u, v, 2.0, n=n, zero_components=zero)
    assert sum(points) <= 2 * 7 * (2 * m + 1) + (2 * m + 1)


def test_import_leaves_scipy_linalg_out():
    # scipy.linalg (and LAPACK's dlasd4 through it) would add about 6 MB of
    # resident memory to every process that imports the package
    code = "import sys, spikesep; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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


@pytest.mark.parametrize("mu", [0.6, -0.6, 3.0])
def test_chiral_averaged_matches_dense(mu):
    # 1 = mu sum_j lam/(lam^2 - lam_j^2) is the rank-one equation of
    # diag(+-lam_j) + (mu/2) 1 1^T; its m largest eigenvalues are the roots
    sing = np.array([4.1, 0.7, 2.0, 1.1, 3.3])
    m = sing.size
    dense = np.diag(np.concatenate([sing, -sing])) + 0.5 * mu * np.ones((2 * m, 2 * m))
    ref = np.linalg.eigvalsh(dense)[m:]
    roots = chiral_secular_eigenvalues(sing, mu=mu, n=7)
    assert np.max(np.abs(roots - ref)) < 1e-12 * np.max(np.abs(ref))


def test_chiral_empty_input_returns_empty():
    for kwargs in ({}, {"u": [], "v": []}):
        out = chiral_secular_eigenvalues([], mu=0.5, **kwargs)
        assert out.shape == (0,)


def test_chiral_pairs_u_v_with_unsorted_singulars():
    sing, u, v, mu, zero, _ = _rank_two_instance(np.random.default_rng(4), 9, 6)
    ascending = chiral_secular_eigenvalues(sing, u, v, mu, n=9, zero_components=zero)
    flipped = chiral_secular_eigenvalues(sing[::-1], u[::-1], v[::-1], mu, n=9,
                                         zero_components=zero)
    assert np.array_equal(flipped, ascending)


def test_chiral_input_validation():
    with pytest.raises(ValueError):
        chiral_secular_eigenvalues([1.0, -2.0], mu=0.5, n=3)
    with pytest.raises(ValueError, match="deflated"):
        chiral_secular_eigenvalues([1.0, 0.0], mu=0.5, n=3)
    with pytest.raises(ValueError):
        chiral_secular_eigenvalues([1.0], u=[1.0], v=None, mu=0.5, n=1)
    for bad in ({"singulars": [1.0, np.nan]}, {"singulars": [np.inf, 1.0]}, {"mu": np.nan},
                {"u": [np.nan, 1.0]}, {"v": [1.0, complex(0.0, np.inf)]},
                {"n": 3, "zero_components": [np.nan]}):
        kwargs = {"singulars": [1.0, 2.0], "u": [0.5, 0.5], "v": [0.5, 0.5], "mu": 0.5, **bad}
        with pytest.raises(ValueError, match="finite"):
            chiral_secular_eigenvalues(**kwargs)


def test_predictor_gaussian():
    gue = ShiftedGUE(500, 1, 0.0)
    pred = gue.predictor(2.0)
    assert pred.above_threshold and pred.threshold == 1.0
    assert pred.location == pytest.approx(39.5285, abs=1e-4)
    below = gue.predictor(0.5)
    assert not below.above_threshold and below.location is None
    for spike in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            gue.predictor(spike)
    with pytest.raises(ValueError):
        gue.respike(math.nan)


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
    for spike in (0.0, -1.0, math.nan, math.inf):
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
    for spike in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            chiral.predictor(spike)
    with pytest.raises(ValueError):
        chiral.respike(math.nan)
