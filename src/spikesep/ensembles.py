"""Seeded matrix samplers for the three spiked ensembles at beta = 1, 2.

The kernel models in `spikesep.kernels` describe the ensembles; each one's
`trial_plan(beta)` pairs a family builder below with the map from the built
matrix's eigenvalues to its spectrum, and `sample_spectrum` draws one trial.

Entry variances are fixed by the defining matrix weights:
  * Gaussian weight exp(-(beta/2) Tr G^2): beta=1 diag var 1, off-diag var 1/2;
    beta=2 diag var 1/2, off-diag complex with E|G_ij|^2 = 1/2.  Bulk edge
    J = sqrt(2N) either way.
  * Rectangular weight exp(-(beta/2) Tr Y^dag Y): beta=1 entries var 1;
    beta=2 complex entries with E|y|^2 = 1.  Null Wishart bulk (0, 4m) for
    n - m fixed.
Reproducibility: each trial draws from a counter-based Philox stream keyed by
(master_seed, trial_index), so trials are order- and thread-independent, and
normals come from a fixed-consumption Box-Muller transform of uniforms.

Batches: `SeedStream.trials(lo, hi)` stacks the uniforms of trials lo..hi-1,
one row per trial, bit-identical to their own generators.  The draws and the
family builders take one `Generator` or such a batch, and then build a
(hi - lo, dim, dim) stack equal to the stacked per-trial matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "SeedStream",
    "TrialStreams",
    "sample_spectrum",
    "draw_gaussian_hermitian",
    "draw_gaussian_rectangular",
    "shifted_hermitian",
    "spiked_gram",
    "shifted_gram",
    "eigensolver_residual",
]


@dataclass(frozen=True)
class SeedStream:
    """Substream derivation: trial t uses Philox keyed by (master_seed, t)."""

    master_seed: int

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master seed must fit in 64 unsigned bits")

    def generator(self, trial: int) -> Generator:
        if trial < 0 or trial >= 2**64:
            raise ValueError("trial index must fit in 64 unsigned bits")
        key = np.array([self.master_seed, trial], dtype=np.uint64)
        return Generator(Philox(key=key))

    def trials(self, lo: int, hi: int) -> "TrialStreams":
        """The streams of trials lo..hi-1 as one batch source."""
        if not 0 <= lo < hi <= 2**64:
            raise ValueError("trial range must be non-empty and fit in 64 unsigned bits")
        return TrialStreams(self.generator(lo), self.master_seed, lo, hi)


class TrialStreams:
    """Uniforms of consecutive trials, one row per trial.

    Row i of `random(count)` equals `SeedStream.generator(lo + i).random(count)`
    bit for bit.  One Philox bit generator is re-keyed per trial through its
    public state (key (master_seed, t), counter 0, empty buffer), which is the
    state `Philox(key=...)` starts in, without a fresh generator per trial.
    Every row starts its trial's stream, so a source serves a single draw.
    """

    def __init__(self, gen: Generator, master_seed: int, lo: int, hi: int):
        self._gen, self._master_seed, self._lo, self._hi = gen, master_seed, lo, hi

    def random(self, count: int) -> np.ndarray:
        if self._gen is None:
            raise RuntimeError("a trial batch serves one draw; ask the stream for a new batch")
        gen, self._gen = self._gen, None
        out = np.empty((self._hi - self._lo, count))
        gen.random(count, out=out[0])
        key = np.array([self._master_seed, self._lo], dtype=np.uint64)
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                 "buffer": np.zeros(4, dtype=np.uint64),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i in range(1, out.shape[0]):
            key[1] = self._lo + i
            gen.bit_generator.state = state
            gen.random(count, out=out[i])
        return out


_triu_cache: dict = {}


def _triu_plan(n: int):
    plan = _triu_cache.get(n)
    if plan is None:
        iu = np.triu_indices(n, k=1)
        plan = (iu, (iu[1], iu[0]), np.diag_indices(n))
        _triu_cache[n] = plan
    return plan


def _normals(source, count: int) -> np.ndarray:
    """count standard normals per trial via Box-Muller (fixed uniform
    consumption: one block of 2*ceil(count/2) uniforms per call); the result
    has the source's batch shape, (count,) for a Generator."""
    pairs = (count + 1) // 2
    u = source.random(2 * pairs)
    u1 = u[..., :pairs]
    u2 = u[..., pairs:]
    u1 = np.where(u1 > 0.0, u1, 5e-324)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * math.pi) * u2
    z = np.empty(u.shape)
    np.multiply(radius, np.cos(angle), out=z[..., :pairs])
    np.multiply(radius, np.sin(angle), out=z[..., pairs:])
    return z[..., :count]


def draw_gaussian_hermitian(source, n: int, beta: int) -> np.ndarray:
    """Zero-mean Gaussian symmetric (beta=1) / Hermitian (beta=2) matrices,
    shape (..., n, n) over the source's batch axis."""
    iu, il, di = _triu_plan(n)
    n_off = iu[0].size
    if beta == 1:
        z = _normals(source, n + n_off)
        g = np.zeros(z.shape[:-1] + (n, n))
        g[..., di[0], di[1]] = z[..., :n]
        off = z[..., n:] / math.sqrt(2.0)
        g[..., iu[0], iu[1]] = off
        g[..., il[0], il[1]] = off
        return g
    if beta == 2:
        z = _normals(source, n + 2 * n_off)
        g = np.zeros(z.shape[:-1] + (n, n), dtype=complex)
        g[..., di[0], di[1]] = z[..., :n] / math.sqrt(2.0)
        off = (z[..., n : n + n_off] + 1j * z[..., n + n_off :]) / 2.0
        g[..., iu[0], iu[1]] = off
        g[..., il[0], il[1]] = off.conj()
        return g
    raise ValueError("beta must be 1 or 2")


def draw_gaussian_rectangular(source, n: int, m: int, beta: int) -> np.ndarray:
    """(..., n, m) Gaussian matrices with the rectangular weight's entry variances."""
    if beta == 1:
        z = _normals(source, n * m)
        return z.reshape(z.shape[:-1] + (n, m))
    if beta == 2:
        z = _normals(source, 2 * n * m)
        z = z.reshape(z.shape[:-1] + (2, n, m))
        return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)
    raise ValueError("beta must be 1 or 2")


def shifted_hermitian(source, n: int, spikes: np.ndarray, beta: int) -> np.ndarray:
    """G + diag((0)^{n-r}, spikes) for r = len(spikes), shape (..., n, n)."""
    g = draw_gaussian_hermitian(source, n, beta)
    idx = np.arange(n - spikes.size, n)
    g[..., idx, idx] += spikes
    return g


def spiked_gram(source, n: int, sqrt_sigma: np.ndarray, beta: int) -> np.ndarray:
    """Sigma^{1/2} Y^dag Y Sigma^{1/2} for n x m Y, m = len(sqrt_sigma); (..., m, m)."""
    y = draw_gaussian_rectangular(source, n, sqrt_sigma.size, beta)
    x = y * sqrt_sigma
    return np.swapaxes(x.conj(), -1, -2) @ x


def shifted_gram(source, n: int, m: int, spikes: np.ndarray, beta: int) -> np.ndarray:
    """(Y + X0)^dag (Y + X0), (X0)_{jj} = spikes[j] for j < r = len(spikes); (..., m, m)."""
    y = draw_gaussian_rectangular(source, n, m, beta)
    idx = np.arange(spikes.size)
    y[..., idx, idx] += spikes
    return np.swapaxes(y.conj(), -1, -2) @ y


def sample_spectrum(model, beta: int, stream: SeedStream, trial: int) -> np.ndarray:
    """Ascending spectrum of trial `trial` of a kernel model at beta, built by
    `model.trial_plan(beta)`: the eigenvalues, or the chiral model's m
    singular values, the values `sample_batch` bins."""
    _, build, post = model.trial_plan(beta)
    return post(np.linalg.eigvalsh(build(stream.generator(trial))))


def eigensolver_residual(a: np.ndarray) -> float:
    """max_k ||A v_k - lambda_k v_k|| / ||A|| for the solver used by the samplers."""
    vals, vecs = np.linalg.eigh(a)
    resid = a @ vecs - vecs * vals[None, :]
    norm_a = np.linalg.norm(a, 2)
    return float(np.max(np.linalg.norm(resid, axis=0)) / norm_a)
