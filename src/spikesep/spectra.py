"""Limiting spectral laws: semicircle and Marchenko-Pastur variants.

Conventions:
  * Semicircle(n): counting density with total mass n on (-J, J), J = sqrt(2n).
  * MarchenkoPasturFixedDiff(m): unit-mass density on (0, 4m) in the unscaled
    eigenvalue variable (aspect difference n - m held fixed).
  * MarchenkoPasturGamma(gamma): unit-mass law of the n x n Wishart
    matrix, n = gamma*m, in the scaled variable x = lambda/m; absolutely
    continuous part on (c, d) with c = (1-sqrt(gamma))^2,
    d = (1+sqrt(gamma))^2, plus point mass 1 - 1/gamma at 0 for gamma > 1.
    `density` returns the a.c. part, `point_mass` the atom, and `stieltjes`
    the transform of the full law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Semicircle",
    "MarchenkoPasturFixedDiff",
    "MarchenkoPasturGamma",
    "LimitLaw",
    "DensityCurve",
    "support",
    "density",
    "point_mass",
    "stieltjes",
]


@dataclass(frozen=True)
class Semicircle:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be positive")

    @property
    def edge(self) -> float:
        return math.sqrt(2.0 * self.n)


@dataclass(frozen=True)
class MarchenkoPasturFixedDiff:
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("matrix size must be positive")


@dataclass(frozen=True)
class MarchenkoPasturGamma:
    gamma: float

    def __post_init__(self):
        if self.gamma < 1.0:
            raise ValueError("aspect ratio gamma must be >= 1")

    @property
    def lower_edge(self) -> float:
        return (1.0 - math.sqrt(self.gamma)) ** 2

    @property
    def upper_edge(self) -> float:
        return (1.0 + math.sqrt(self.gamma)) ** 2


LimitLaw = Union[Semicircle, MarchenkoPasturFixedDiff, MarchenkoPasturGamma]


@dataclass
class DensityCurve:
    """A density sampled on a strictly increasing grid, with provenance tags."""

    grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must be a 1-d array with at least two points")
        if not np.all(np.diff(self.grid) > 0):  # NaN fails this too
            raise ValueError("grid must be strictly increasing")
        if self.values.shape != self.grid.shape:
            raise ValueError("values must match grid length")
        if not np.all(self.values >= 0):
            raise ValueError("density values must be nonnegative (clamp before building)")

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


def support(law: LimitLaw) -> tuple[float, float]:
    if isinstance(law, Semicircle):
        return (-law.edge, law.edge)
    if isinstance(law, MarchenkoPasturFixedDiff):
        return (0.0, 4.0 * law.m)
    if isinstance(law, MarchenkoPasturGamma):
        return (law.lower_edge, law.upper_edge)
    raise TypeError(f"unknown law {law!r}")


def density(law: LimitLaw, x):
    """Absolutely continuous density at x (vectorized); zero outside support; NaN raises."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("density at a NaN point")
    if isinstance(law, Semicircle):
        j = law.edge
        inside = np.abs(x) < j
        out = np.zeros_like(x)
        out[inside] = (2.0 * law.n / (math.pi * j)) * np.sqrt(1.0 - (x[inside] / j) ** 2)
        return out if out.ndim else float(out)
    if isinstance(law, MarchenkoPasturFixedDiff):
        m = law.m
        inside = (x > 0) & (x < 4.0 * m)
        out = np.zeros_like(x)
        xi = x[inside]
        out[inside] = np.sqrt(1.0 - xi / (4.0 * m)) / (math.pi * np.sqrt(xi * m))
        return out if out.ndim else float(out)
    if isinstance(law, MarchenkoPasturGamma):
        c, d = law.lower_edge, law.upper_edge
        inside = (x > c) & (x < d)
        out = np.zeros_like(x)
        xi = x[inside]
        out[inside] = np.sqrt((xi - c) * (d - xi)) / (2.0 * math.pi * law.gamma * xi)
        return out if out.ndim else float(out)
    raise TypeError(f"unknown law {law!r}")


def point_mass(law: LimitLaw) -> tuple[float, float]:
    """(location, weight) of the atom; weight 0 when the law has none."""
    if isinstance(law, MarchenkoPasturGamma) and law.gamma > 1.0:
        return (0.0, 1.0 - 1.0 / law.gamma)
    return (0.0, 0.0)


def stieltjes(law: LimitLaw, z: float) -> float:
    """integral rho(x)/(z-x) dx (plus the atom's weight/z where applicable).

    Defined for real z strictly outside the support, 0 at +-inf; principal
    values, the atom and NaN are out of scope and raise.
    """
    if math.isnan(z):
        raise ValueError("z must not be NaN")
    if isinstance(law, Semicircle):
        j = law.edge
        if abs(z) <= j:
            raise ValueError("z must lie strictly outside the support")
        return 2.0 * law.n / (z * (1.0 + math.sqrt(1.0 - (j / z) ** 2)))
    if isinstance(law, MarchenkoPasturFixedDiff):
        m = law.m
        if not (z > 4.0 * m or z < 0.0):
            raise ValueError("z must lie strictly outside the support")
        return 2.0 / (z * (1.0 + math.sqrt(1.0 - 4.0 * m / z)))
    if isinstance(law, MarchenkoPasturGamma):
        g = law.gamma
        if not (z > law.upper_edge or z < law.lower_edge):
            raise ValueError("z must lie strictly outside the support")
        if 0.0 <= z < law.lower_edge:
            raise ValueError("evaluation at the atom or inside the spectral gap is out of scope")
        disc = 1.0 - 2.0 * (g + 1.0) / z + ((g - 1.0) / z) ** 2
        core = 2.0 / (z - (g - 1.0) + z * math.sqrt(disc))
        atom = (1.0 - 1.0 / g) / z
        return atom + core / g
    raise TypeError(f"unknown law {law!r}")

