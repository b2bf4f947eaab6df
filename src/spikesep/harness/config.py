"""Experiment configuration and comparison-report records."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["GridSpec", "ExperimentConfig", "ComparisonReport", "worker_count"]

WORKERS_ENV = "SPIKESEP_WORKERS"


def worker_count() -> int:
    """Worker-thread count; overridable via the SPIKESEP_WORKERS env variable.

    Defaults to 1; opt in for long runs.  Workers split a run by chunks of
    up to 2048 trials, so a shorter run gains nothing.  The batched draws
    spend most of a chunk in numpy and LAPACK outside the GIL: on 2 cores,
    at the figures' sizes (N, m <= 15, 20000 trials), 2 workers ran 1.1-1.5x
    faster than 1.  Results are identical for any worker count.
    """
    raw = os.environ.get(WORKERS_ENV, "")
    if raw:
        count = int(raw)
        if count < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1")
        return count
    return 1


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError("grid lower bound must be below upper bound")
        if self.count < 2:
            raise ValueError("grid needs at least two points")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str  # density | mc | scan
    model: object  # a spikesep.kernels model: ShiftedGUE, SpikedLUE or ShiftedChiral
    grid: GridSpec
    trials: int = 1
    bins: int = 101
    master_seed: int = 1729
    beta: int = 2
    spikes: Sequence[float] = ()

    def __post_init__(self):
        if self.kind not in ("density", "mc", "scan"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.beta not in (1, 2):
            raise ValueError("beta must be 1 or 2")


@dataclass
class ComparisonReport:
    l1_distance: float = float("nan")
    sup_distance: float = float("nan")
    trace_exact: float = float("nan")
    trace_empirical: float = float("nan")
    peak_locations: list = field(default_factory=list)
    predictor_location: Optional[float] = None
    pass_flags: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "l1_distance": self.l1_distance,
            "sup_distance": self.sup_distance,
            "trace_exact": self.trace_exact,
            "trace_empirical": self.trace_empirical,
            "peak_locations": list(self.peak_locations),
            "predictor_location": self.predictor_location,
            "pass_flags": dict(self.pass_flags),
        }
