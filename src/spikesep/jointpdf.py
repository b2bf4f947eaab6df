"""Joint eigenvalue densities and Green functions at small N (beta = 2).

The unitary-group hypergeometric functions of two matrix arguments reduce to
determinants at beta = 2:

    0F0(x; y) = [prod_{k=1}^{N-1} k!] det[e^{x_i y_j}] / (Delta(x) Delta(y))
    0F1(a; x; y) = [prod_i (N-i)! Gamma(a-i+1)] / Gamma(a-N+1)^N
                   * det[0f1(a-N+1; x_i y_j)] / (Delta(x) Delta(y))

The constants are not taken on faith: `series_f00` / `series_f01` evaluate the
defining partition series (Schur polynomials by alternant ratios) and the test
suite pins the determinant formulas against them at N = 2, 3.

These evaluations serve as an independent oracle for the large-shift
factorization of the joint densities and for the Brownian-motion Green
functions, so everything here favours transparency over speed (N <= 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .kernels import ShiftedChiral, ShiftedGUE, SpikedLUE
from .logspace import SignedLogValue
from .specialfn import log_0f1

__all__ = [
    "EigenConfiguration",
    "f00_unitary",
    "f01_unitary",
    "series_f00",
    "series_f01",
    "joint_pdf",
    "green_function",
    "green_gaussian_n1",
    "green_chiral_n1",
]

_MIN_RELATIVE_GAP = 1e-10
_SERIES_WEIGHT = 10


@dataclass(frozen=True)
class EigenConfiguration:
    """Eigenvalues, source eigenvalues, and optional Brownian-motion time."""

    lam: np.ndarray
    lam0: np.ndarray
    tau: Optional[float] = None

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        lam0 = np.asarray(self.lam0, dtype=float)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam0", lam0)
        if lam.ndim != 1 or lam0.shape != lam.shape:
            raise ValueError("lam and lam0 must be 1-d arrays of equal length")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("lam must be strictly increasing")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive")


def _check_distinct(v: np.ndarray, label: str):
    v = np.sort(np.asarray(v, dtype=float))
    scale = max(np.max(np.abs(v)), 1.0)
    if v.size > 1 and np.min(np.diff(v)) <= _MIN_RELATIVE_GAP * scale:
        raise ValueError(
            f"{label} entries are (near-)coincident; perturb symmetric configurations "
            f"by ~1e-6 before calling (determinant formula divides by their Vandermonde)"
        )


def _log_vandermonde(v: np.ndarray) -> tuple[int, float]:
    sign, log = 1, 0.0
    n = v.size
    for i in range(n):
        for j in range(i + 1, n):
            d = v[j] - v[i]
            if d == 0.0:
                return 0, -math.inf
            if d < 0:
                sign = -sign
            log += math.log(abs(d))
    return sign, log


def _det_signlog(log_entries: np.ndarray) -> tuple[int, float]:
    """(sign, log|det|) of a matrix given entrywise logs (entries all > 0)."""
    row_shift = np.max(log_entries, axis=1)
    mat = np.exp(log_entries - row_shift[:, None])
    sign, logdet = np.linalg.slogdet(mat)
    if sign == 0:
        return 0, -math.inf
    return int(sign), float(logdet + np.sum(row_shift))


def f00_unitary(x, y) -> SignedLogValue:
    """0F0 of two vector arguments via the exponential determinant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    _check_distinct(x, "x")
    _check_distinct(y, "y")
    n = x.size
    sx, lx = _log_vandermonde(x)
    sy, ly = _log_vandermonde(y)
    sd, ld = _det_signlog(np.outer(x, y))
    const = sum(gammaln(k + 1.0) for k in range(1, n))
    return SignedLogValue.from_log(sd * sx * sy, ld + const - lx - ly)


def f01_unitary(a: float, x, y) -> SignedLogValue:
    """0F1 of two nonnegative vector arguments via the Bessel-type determinant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("arguments must be nonnegative")
    n = x.size
    if a <= n - 1:
        raise ValueError("need a > N - 1 for the lower parameter")
    _check_distinct(x, "x")
    _check_distinct(y, "y")
    b = a - n + 1.0
    sx, lx = _log_vandermonde(x)
    sy, ly = _log_vandermonde(y)
    logs = log_0f1(b, np.multiply.outer(x, y))
    sd, ld = _det_signlog(logs)
    const = sum(gammaln(n - i + 1.0) + gammaln(a - i + 1.0) for i in range(1, n + 1))
    const -= n * gammaln(b)
    return SignedLogValue.from_log(sd * sx * sy, ld + const - lx - ly)


# ---------------------------------------------------------------------------
# partition-series oracles (Schur polynomials via alternant ratios)

def _partitions_up_to(weight: int, max_parts: int):
    def gen(rest, max_part, prefix):
        if rest == 0:
            yield tuple(prefix)
            return
        if len(prefix) == max_parts:
            return
        for part in range(min(rest, max_part), 0, -1):
            yield from gen(rest - part, part, prefix + [part])

    for w in range(weight + 1):
        yield from gen(w, w if w else 0, []) if w else iter([()])


def _schur(kappa, v: np.ndarray) -> float:
    n = v.size
    mu = np.array(list(kappa) + [0] * (n - len(kappa)), dtype=float) + np.arange(n - 1, -1, -1)
    num = np.linalg.det(np.power.outer(v, mu))
    den = np.linalg.det(np.power.outer(v, np.arange(n - 1, -1, -1, dtype=float)))
    return num / den


def _hook_product(kappa) -> int:
    prod = 1
    conj = [sum(1 for p in kappa if p > j) for j in range(kappa[0])] if kappa else []
    for i, p in enumerate(kappa):
        for j in range(p):
            prod *= (p - j) + (conj[j] - i) - 1
    return prod


def _schur_at_ones(kappa, n: int) -> float:
    prod = 1.0
    for i, p in enumerate(kappa):
        for j in range(p):
            prod *= n + j - i
    return prod / _hook_product(kappa)


def _gen_pochhammer(a: float, kappa, n: int) -> float:
    prod = 1.0
    for i, p in enumerate(kappa):
        prod *= math.exp(gammaln(a - i + p) - gammaln(a - i))
    return prod


def series_f00(x, y) -> float:
    """Partition series for 0F0 truncated at |kappa| <= _SERIES_WEIGHT (oracle)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    total = 0.0
    for kappa in _partitions_up_to(_SERIES_WEIGHT, n):
        if not kappa:
            total += 1.0
            continue
        total += _schur(kappa, x) * _schur(kappa, y) / (_hook_product(kappa) * _schur_at_ones(kappa, n))
    return total


def series_f01(a: float, x, y) -> float:
    """Partition series for 0F1 truncated at |kappa| <= _SERIES_WEIGHT (oracle)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    total = 0.0
    for kappa in _partitions_up_to(_SERIES_WEIGHT, n):
        if not kappa:
            total += 1.0
            continue
        total += (
            _schur(kappa, x)
            * _schur(kappa, y)
            / (_hook_product(kappa) * _schur_at_ones(kappa, n) * _gen_pochhammer(a, kappa, n))
        )
    return total


# ---------------------------------------------------------------------------
# joint densities

def joint_pdf(model: ShiftedGUE | SpikedLUE | ShiftedChiral,
              config: EigenConfiguration) -> SignedLogValue:
    """Unnormalized joint eigenvalue density of a kernel model (beta = 2).

    ShiftedGUE:    Delta(lam)^2 exp(-sum lam^2 - sum lam0^2) 0F0(2 lam0; lam)
    SpikedLUE:     prod lam^alpha Delta(lam)^2 0F0(lam; -lam0), lam0 the
                   inverse-covariance eigenvalues (btilde^r, 1^{m-r})
    ShiftedChiral: prod lam^{2a+1} e^{-lam^2} Delta(lam^2)^2 0F1(n; lam^2; lam0^2),
                   n = m + alpha
    The source eigenvalues lam0 come from `config`; the model supplies the
    family, alpha and the number of eigenvalues (n, or m), which the
    configuration must have.
    """
    lam = config.lam
    if lam.size > 6:
        raise ValueError("oracle-scale evaluation only (N <= 6)")
    if not isinstance(model, (ShiftedGUE, SpikedLUE, ShiftedChiral)):
        raise TypeError(f"unknown spike model {model!r}")
    if lam.size != model.mass:
        raise ValueError(f"the model has {model.mass:g} eigenvalues, the configuration {lam.size}")
    if isinstance(model, ShiftedGUE):
        _, lv = _log_vandermonde(lam)
        f = f00_unitary(2.0 * config.lam0, lam)
        log = 2.0 * lv - float(np.sum(lam**2) + np.sum(config.lam0**2))
        return f.scaled(log)
    if isinstance(model, SpikedLUE):
        if np.any(lam <= 0):
            raise ValueError("Wishart eigenvalues must be positive")
        _, lv = _log_vandermonde(lam)
        f = f00_unitary(lam, -np.asarray(config.lam0, dtype=float))
        log = model.alpha * float(np.sum(np.log(lam))) + 2.0 * lv
        return f.scaled(log)
    if np.any(lam <= 0):
        raise ValueError("chiral positive eigenvalues must be positive")
    alpha = model.alpha
    _, lv2 = _log_vandermonde(lam**2)
    f = f01_unitary(float(model.m + alpha), lam**2, np.asarray(config.lam0, dtype=float) ** 2)
    log = (2.0 * alpha + 1.0) * float(np.sum(np.log(lam))) - float(np.sum(lam**2)) + 2.0 * lv2
    return f.scaled(log)


# ---------------------------------------------------------------------------
# Green functions of the eigenvalue Brownian motion

def green_gaussian_n1(lam: float, lam0: float, tau: float) -> float:
    """Exact normalized N=1 Gaussian Green function (Ornstein-Uhlenbeck)."""
    t = math.exp(-tau)
    var = 0.5 * (1.0 - t * t)
    return math.exp(-((lam - t * lam0) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def green_chiral_n1(lam: float, lam0: float, tau: float, alpha_prime: float) -> float:
    """Exact normalized N=1 chiral Green function (squared-Bessel bridge)."""
    t = math.exp(-2.0 * tau)
    nu = alpha_prime - 0.5
    one_mt = 1.0 - t
    z = t * (lam * lam0) ** 2 / one_mt**2
    log = (
        math.log(2.0)
        + 2.0 * alpha_prime * math.log(lam)
        - (lam * lam + t * lam0 * lam0) / one_mt
        - (nu + 1.0) * math.log(one_mt)
        - gammaln(nu + 1.0)
        + log_0f1(nu + 1.0, z)
    )
    return math.exp(log)


def green_function(
    family: str,
    config: EigenConfiguration,
    alpha: Optional[float] = None,
    n_param: Optional[float] = None,
) -> SignedLogValue:
    """Green function of the beta=2 eigenvalue diffusion (N <= 4).

    family='gaussian': potential sum lam^2/2 - log|Delta|; time enters through
    t = e^{-tau}.  family='chiral' (positive eigenvalues): potential per the
    log-squared repulsion with parameter alpha' = alpha + 1/2; t = e^{-2 tau},
    because the diffusion acts on the squared variable lam^2, which relaxes at
    twice the rate of lam: only this t composes two time steps into one (the
    semigroup property, tested at N = 1).

    Normalized exactly at N = 1; proportional (C independent of lam, lam0)
    otherwise.
    """
    if config.tau is None:
        raise ValueError("configuration must carry a positive tau")
    lam = config.lam
    lam0 = np.asarray(config.lam0, dtype=float)
    nn = lam.size
    if nn > 4:
        raise ValueError("Green functions evaluated at N <= 4 only")
    tau = config.tau
    if family == "gaussian":
        if nn == 1:
            return SignedLogValue.from_float(green_gaussian_n1(lam[0], lam0[0], tau))
        t = math.exp(-tau)
        _, lv = _log_vandermonde(lam)
        one_mt2 = 1.0 - t * t
        f = f00_unitary(2.0 * lam * t / one_mt2, lam0)
        log = (
            2.0 * lv
            - float(np.sum(lam**2))
            - (t * t / one_mt2) * float(np.sum(lam**2) + np.sum(lam0**2))
        )
        return f.scaled(log)
    if family == "chiral":
        if alpha is None or n_param is None:
            raise ValueError("chiral family needs alpha and n_param")
        alpha_prime = alpha + 0.5
        if nn == 1:
            return SignedLogValue.from_float(green_chiral_n1(lam[0], lam0[0], tau, alpha_prime))
        t = math.exp(-2.0 * tau)
        one_mt = 1.0 - t
        _, lv2 = _log_vandermonde(lam**2)
        f = f01_unitary(float(n_param), lam**2 / one_mt, t * lam0**2 / one_mt)
        log = (
            2.0 * alpha_prime * float(np.sum(np.log(lam)))
            + 2.0 * lv2
            - float(np.sum(lam**2))
            - (t / one_mt) * float(np.sum(lam**2) + np.sum(lam0**2))
        )
        return f.scaled(log)
    raise ValueError("family must be 'gaussian' or 'chiral'")
