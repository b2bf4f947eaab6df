import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from spikesep.ensembles import (
    SeedStream,
    draw_gaussian_hermitian,
    eigensolver_residual,
    sample_spectrum,
)
from spikesep.harness.experiments import sample_batch
from spikesep.kernels import ShiftedChiral, ShiftedGUE, SpikedLUE


def test_determinism_bitwise():
    stream = SeedStream(123)
    model = ShiftedGUE(10, 2, 2.0)
    a = sample_spectrum(model, 2, stream, 7)
    b = sample_spectrum(model, 2, stream, 7)
    assert np.array_equal(a, b)
    c = sample_spectrum(model, 2, stream, 8)
    assert not np.array_equal(a, c)
    other = sample_spectrum(model, 2, SeedStream(124), 7)
    assert not np.array_equal(a, other)


def test_gaussian_n1_mean_and_variance():
    # single-site ensemble: eigenvalue ~ Normal(c, 1/2) at beta = 2
    stream = SeedStream(42)
    model = ShiftedGUE(1, 1, 3.0)
    trials = 100_000
    vals = np.array([
        sample_spectrum(model, 2, stream, t)[0] for t in range(trials)
    ])
    se = math.sqrt(0.5 / trials)
    assert abs(vals.mean() - 3.0) < 3 * se
    assert vals.var() == pytest.approx(0.5, rel=0.02)


def test_gaussian_trace_mean():
    stream = SeedStream(7)
    model = ShiftedGUE(12, 3, 1.5)
    trials = 4000
    traces = np.array([
        np.sum(sample_spectrum(model, 2, stream, t))
        for t in range(trials)
    ])
    # Var(Tr G) = sum of diagonal variances = N/2 at beta = 2
    se = math.sqrt(12 * 0.5 / trials)
    assert abs(traces.mean() - 3 * 1.5) < 3 * se


def test_gaussian_beta1_edge():
    stream = SeedStream(11)
    model = ShiftedGUE(200, 0, 0.0)
    tops = np.array([
        sample_spectrum(model, 1, stream, t)[-1] for t in range(100)
    ])
    assert abs(tops.mean() - 20.0) / 20.0 < 0.05


def test_wishart_nonnegative_and_trace():
    stream = SeedStream(3)
    model = SpikedLUE(30, 3.0, 2, 0.25)
    trials = 2500
    traces = np.empty(trials)
    for t in range(trials):
        eig = sample_spectrum(model, 2, stream, t)
        assert np.all(eig >= -1e-9)
        traces[t] = eig.sum()
    expected = 33 * (30 - 2) + 33 * 2 * 4.0
    se = traces.std(ddof=1) / math.sqrt(trials)
    assert abs(traces.mean() - expected) < 3 * se


def test_wishart_null_density_matches_mp():
    stream = SeedStream(19)
    m = 100
    model = SpikedLUE(m, 3.0, 0, 1.0)
    trials = 1000
    edges = np.linspace(0.0, 4.0 * m, 51)
    counts = np.zeros(50)
    for t in range(trials):
        counts += np.histogram(sample_spectrum(model, 2, stream, t), bins=edges)[0]
    emp_mass = counts / (trials * m)

    def cdf(x):  # x = 4m sin^2(theta) linearizes the limit law exactly
        th = np.arcsin(np.sqrt(np.clip(x / (4.0 * m), 0.0, 1.0)))
        return (2.0 / math.pi) * (th + np.sin(th) * np.cos(th))

    exact_mass = np.diff(cdf(edges))
    l1 = float(np.abs(emp_mass - exact_mass).sum())
    assert l1 < 0.03


def test_chiral_structure_and_spike_capture():
    # the separated lobe is displaced upward by the bulk repulsion (center
    # ~15.9, half-width ~3), so the capture window is (11, 21); the bulk tops
    # out near 2 sqrt(m) ~ 7.75, far below the window
    stream = SeedStream(23)
    model = ShiftedChiral(15, 4.0, 5, 15.0)
    hits = 0
    trials = 200
    for t in range(trials):
        eig = sample_spectrum(model, 2, stream, t)  # the m singular values
        assert eig.size == 15
        assert np.all(eig >= 0.0) and np.all(np.diff(eig) >= 0.0)
        hits += int(np.sum((eig > 11.0) & (eig < 21.0)) == 5)
    assert hits / trials > 0.99


def test_chiral_null_positive_density_matches_semicircle():
    # positive singular values follow the half semicircle with edge J = 2 sqrt(m)
    stream = SeedStream(29)
    m = 200
    model = ShiftedChiral(m, 3.0, 0, 0.0)
    trials = 150
    j = 2.0 * math.sqrt(m)
    edges = np.linspace(0.0, 1.05 * j, 61)
    counts = np.zeros(60)
    for t in range(trials):
        eig = sample_spectrum(model, 2, stream, t)
        counts += np.histogram(eig[eig > 1e-9], bins=edges)[0]
    emp_mass = counts / (trials * m)

    def cdf(x):
        phi = np.arcsin(np.clip(x / j, 0.0, 1.0))
        return (2.0 / math.pi) * (phi + np.sin(phi) * np.cos(phi))

    exact_mass = np.diff(cdf(edges))
    l1 = float(np.abs(emp_mass - exact_mass).sum())
    assert l1 < 0.05


def test_unitary_invariance_of_spike_realization():
    # diagonal spike vs rotated spike: same largest-eigenvalue law (KS test)
    stream = SeedStream(31)
    n, c = 30, 4.0
    model = ShiftedGUE(n, 1, c)
    diag_tops = np.array([
        sample_spectrum(model, 2, stream, t)[-1] for t in range(1000)
    ])
    rng = np.random.default_rng(99)
    rot_tops = np.empty(1000)
    for t in range(1000):
        g = draw_gaussian_hermitian(SeedStream(77).generator(t), n, 2)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        q = z / np.linalg.norm(z)
        h0 = c * np.outer(q, q.conj())
        rot_tops[t] = np.linalg.eigvalsh(g + h0)[-1]
    assert ks_2samp(diag_tops, rot_tops).pvalue > 0.01


def test_eigensolver_residual_contract():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100))
        a = a + a.conj().T
        assert eigensolver_residual(a) < 1e-10


def test_dimension_errors():
    with pytest.raises(ValueError):
        SpikedLUE(5, -1.0, 1, 1.0)
    with pytest.raises(ValueError):
        SpikedLUE(5, 1.0, 1, -1.0)
    with pytest.raises(ValueError):
        SpikedLUE(5, 1.0, 1, 1.0, regime="gamma")
    with pytest.raises(ValueError):
        SpikedLUE(5, -0.5, 1, 1.0, regime="proportional")


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("family", ["gaussian", "wishart", "chiral"])
def test_sample_batch_matches_per_trial_samplers(family, beta):
    """The harness sampler and the per-trial `sample_spectrum` draw the same matrices."""
    stream = SeedStream(17)
    model = {"gaussian": ShiftedGUE(12, 2, 3.0), "wishart": SpikedLUE(10, 3.0, 2, 0.25),
             "chiral": ShiftedChiral(12, 3.0, 3, 4.0)}[family]
    edges = np.linspace(-10.0, 100.0, 23)
    _, largest = sample_batch(model, beta, 20, 17, edges)
    top = np.array([sample_spectrum(model, beta, stream, t)[-1] for t in range(20)])
    assert np.array_equal(largest, top)


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
def test_trial_streams_match_per_trial_generators(master_seed):
    stream = SeedStream(master_seed)
    for lo, hi in ((0, 5), (2**64 - 4, 2**64)):
        for count in (1, 2, 3, 4, 5, 226, 570):
            rows = stream.trials(lo, hi).random(count)
            assert rows.shape == (hi - lo, count)
            for i, t in enumerate(range(lo, hi)):
                assert np.array_equal(rows[i], stream.generator(t).random(count))


def test_trial_streams_errors():
    stream = SeedStream(5)
    for lo, hi in ((-1, 3), (0, 2**64 + 1), (4, 4), (4, 3), (2**64, 2**64 + 1)):
        with pytest.raises(ValueError):
            stream.trials(lo, hi)
    # every row starts its trial's stream, so a batch serves one draw only
    source = stream.trials(0, 3)
    source.random(4)
    with pytest.raises(RuntimeError):
        source.random(4)


class _NoTrials:
    def random(self, count):
        return np.empty((0, count))


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("model", [ShiftedGUE(12, 2, 3.0), SpikedLUE(10, 3.0, 2, 0.25),
                                   ShiftedChiral(12, 3.0, 3, 4.0)], ids=["gue", "lue", "chiral"])
def test_family_builders_on_a_batch_source(model, beta):
    """One build over a batch source equals the stacked per-trial builds."""
    stream = SeedStream(41)
    dim, build, _ = model.trial_plan(beta)
    batch = build(stream.trials(3, 10))
    single = np.stack([build(stream.generator(t)) for t in range(3, 10)])
    assert batch.shape == (7, dim, dim)
    assert np.array_equal(batch, single)
    assert build(_NoTrials()).shape == (0, dim, dim)


def test_sample_batch_sub_batches_match_per_trial_spectra():
    # dim 12 complex: 113-trial sub-batches, so 250 trials are 113 + 113 + 24
    model = ShiftedGUE(12, 2, 3.0)
    stream = SeedStream(9)
    edges = np.linspace(-8.0, 8.0, 41)
    spectra = np.array([sample_spectrum(model, 2, stream, t) for t in range(250)])
    expected = np.histogram(spectra.ravel(), bins=edges)[0]
    for workers in (1, 2):
        counts, largest = sample_batch(model, 2, 250, 9, edges, workers=workers)
        assert np.array_equal(largest, spectra[:, -1])
        assert np.array_equal(counts, expected)


def test_sample_batch_memory_is_bounded_by_sub_batches():
    """A chunk is drawn a sub-batch at a time; drawing it whole peaks far higher."""
    model = ShiftedChiral(15, 4.0, 5, 15.0)
    edges = np.linspace(0.0, 30.0, 61)
    sample_batch(model, 2, 10, 3, edges)
    tracemalloc.start()
    try:
        sample_batch(model, 2, 2000, 3, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20
