"""Span tracer that wraps the program's public functions from outside.

Every boundary is a function object.  `rebind_everywhere` replaces that
object in every loaded module's namespace, because `from ..specialfn import
hermite_weighted_signlog` copies the binding: patching only the defining
module would miss every call made through the copy.  Spans are kept in
memory (name, start, end, parent index, count, bytes) and only recorded while
`Tracer.active` is set, so the benchmark's own checks stay out of them.
The parent stack is per process, which is sound because the benchmark runs
the program with one worker thread.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from time import perf_counter

__all__ = ["Tracer", "BOUNDARIES", "rebind_everywhere", "layer_metrics", "missing_spans"]


def rebind_everywhere(original, replacement) -> list:
    """Point every module-level name bound to `original` at `replacement`.

    Returns (namespace, name, original) triples that undo the rebinding.
    """
    undo = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = replacement
                undo.append((namespace, name, original))
    return undo


def _rows_times_points(args, kwargs, out):
    return int(out[0].size)  # (degree, points) sign stack


def _terms(args, kwargs, out):
    return int(getattr(args[0], "size", 0))


def _size(args, kwargs, out):
    """Points of a density grid, kernel values or roots returned (1 for a scalar)."""
    return int(getattr(out, "size", 1))


def _hermitian_normals(args, kwargs, out):
    n, beta = args[1], args[2]
    return n + (beta * n * (n - 1)) // 2


def _rectangular_normals(args, kwargs, out):
    n, m, beta = args[1], args[2], args[3]
    return n * m * beta


def _matrices(args, kwargs, out):
    shape = getattr(args[0], "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


# (module, attribute, span name, count function).  An attribute "Cls.meth"
# patches the method on its class.
BOUNDARIES = (
    ("spikesep.specialfn", "hermite_weighted_signlog", "specialfn.recurrence", _rows_times_points),
    ("spikesep.specialfn", "laguerre_weighted_signlog", "specialfn.recurrence", _rows_times_points),
    ("spikesep.specialfn", "laguerre_line_signlog", "specialfn.recurrence", _rows_times_points),
    ("spikesep.logspace", "slog_sum_columns", "logspace.slog_sum", _terms),
    ("spikesep.kernels", "density_shifted_gue", "kernels.density", _size),
    ("spikesep.kernels", "density_spiked_lue", "kernels.density", _size),
    ("spikesep.kernels", "density_shifted_chiral", "kernels.density", _size),
    ("spikesep.kernels", "kernel_gue", "kernels.pointwise", _size),
    ("spikesep.kernels", "kernel_shifted_gue", "kernels.pointwise", _size),
    ("spikesep.kernels", "kernel_shifted_gue_asymptotic", "kernels.pointwise", _size),
    ("spikesep.kernels", "kernel_laguerre", "kernels.pointwise", _size),
    ("spikesep.kernels", "kernel_spiked_lue", "kernels.pointwise", _size),
    ("spikesep.kernels", "kernel_shifted_chiral", "kernels.pointwise", _size),
    ("spikesep.kernels", "incomplete_hermite", "kernels.pointwise", _size),
    ("spikesep.kernels", "incomplete_laguerre", "kernels.pointwise", _size),
    ("spikesep.kernels", "chiral_pq", "kernels.pointwise", _size),
    ("spikesep.kernels", "spike_term_shifted_gue", "kernels.pointwise", _size),
    ("spikesep.kernels.laguerre", "lue_spike_term", "kernels.pointwise", _size),
    ("spikesep.kernels", "chiral_spike_term", "kernels.pointwise", _size),
    ("spikesep.secular", "secular_eigenvalues", "secular.solve", _size),
    ("spikesep.secular", "chiral_secular_eigenvalues", "secular.solve", _size),
    ("spikesep.ensembles", "SeedStream.generator", "ensembles.keying", None),
    ("spikesep.ensembles", "draw_gaussian_hermitian", "ensembles.draw", _hermitian_normals),
    ("spikesep.ensembles", "draw_gaussian_rectangular", "ensembles.draw", _rectangular_normals),
    ("spikesep.harness.experiments", "run_density_experiment", "experiments.run_density_experiment", None),
    ("spikesep.harness.experiments", "run_onset_scan", "experiments.run_onset_scan", None),
    ("spikesep.harness.experiments", "exact_density_curve", "experiments.exact_density_curve", None),
    ("spikesep.harness.experiments", "empirical_density_curve", "experiments.empirical_density_curve", None),
    ("spikesep.harness.experiments", "find_separated_peaks", "experiments.find_separated_peaks", None),
    ("spikesep.harness.experiments", "sample_batch", "experiments.sample_batch", None),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh", _matrices),
    ("numpy", "histogram", "numpy.histogram", None),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, count, nbytes]."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, 0, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            if name == "ensembles.draw":
                span[5] = int(out.nbytes)
            elif name == "numpy.eigvalsh":
                span[5] = int(args[0].nbytes)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name, count))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(module, attr)
                self._undo.extend(rebind_everywhere(original, self._wrap(original, name, count)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# aggregation

def _self_times(spans) -> list:
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def _has_ancestor(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, op_windows, ops: int) -> dict:
    """Per-layer metrics per traced operation.

    `op_windows` lists (first span index, end span index, op wall seconds)
    for each traced operation.
    """
    selfs = _self_times(spans)
    acc: dict = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for i, (name, start, end, parent, count, nbytes) in enumerate(spans):
        dur = end - start
        nested = parent >= 0 and spans[parent][0] == name
        if name == "specialfn.recurrence":
            add("recurrence.calls", 1)
            add("recurrence.cells", count)
            add("recurrence.self_s", selfs[i])
            if _has_ancestor(spans, i, "kernels.pointwise"):
                add("pointwise.cells", count)
        elif name == "logspace.slog_sum":
            add("slog_sum.calls", 1)
            add("slog_sum.terms", count)
            add("slog_sum.self_s", selfs[i])
        elif name == "kernels.density":
            add("density.calls", 1)
            add("density.points", count)
            add("density.self_s", selfs[i])
            if parent >= 0 and spans[parent][0] == "experiments.find_separated_peaks":
                add("refine.evals", 1)
                add("refine.s", dur)
        elif name == "kernels.pointwise":
            add("pointwise.self_s", selfs[i])
            if not _has_ancestor(spans, i, "kernels.pointwise"):
                add("pointwise.calls", 1)
                add("pointwise.values", count)
        elif name == "secular.solve" and not nested:
            add("secular.calls", 1)
            add("secular.roots", count)
            add("secular.s", dur)
        elif name == "ensembles.keying":
            add("keying.calls", 1)
            add("keying.s", dur)
        elif name == "ensembles.draw":
            add("draw.calls", 1)
            add("draw.normals", count)
            add("draw.s", dur)
            add("bytes", nbytes)
        elif name == "experiments.sample_batch":
            add("sample_batch.self_s", selfs[i])
        elif name == "numpy.eigvalsh" and parent >= 0 and spans[parent][0] == "experiments.sample_batch":
            add("eigvalsh.matrices", count)
            add("eigvalsh.s", dur)
            add("bytes", nbytes)
        elif name == "numpy.histogram" and parent >= 0 and spans[parent][0] == "experiments.sample_batch":
            add("histogram.s", dur)

    wall = sum(w for _, _, w in op_windows)
    coverage = []
    for first, stop, op_wall in op_windows:
        top = sum(spans[j][2] - spans[j][1] for j in range(first, stop) if spans[j][3] < 0)
        coverage.append(top / op_wall if op_wall > 0 else 0.0)
    coverage.sort()

    def per_op(key):
        return acc.get(key, 0.0) / ops

    values = acc.get("pointwise.values", 0.0)
    return {
        "specialfn.recurrence.calls": (per_op("recurrence.calls"), "calls/op"),
        "specialfn.recurrence.cells": (per_op("recurrence.cells"), "cells/op"),
        "specialfn.recurrence.self_s": (per_op("recurrence.self_s"), "s/op"),
        "logspace.slog_sum.calls": (per_op("slog_sum.calls"), "calls/op"),
        "logspace.slog_sum.terms": (per_op("slog_sum.terms"), "terms/op"),
        "logspace.slog_sum.self_s": (per_op("slog_sum.self_s"), "s/op"),
        "kernels.density.calls": (per_op("density.calls"), "calls/op"),
        "kernels.density.points": (per_op("density.points"), "points/op"),
        "kernels.density.self_s": (per_op("density.self_s"), "s/op"),
        "kernels.pointwise.calls": (per_op("pointwise.calls"), "calls/op"),
        "kernels.pointwise.self_s": (per_op("pointwise.self_s"), "s/op"),
        "kernels.pointwise.cells_per_value": (
            acc.get("pointwise.cells", 0.0) / values if values else 0.0, "cells/value"),
        "experiments.refine.evals": (per_op("refine.evals"), "evals/op"),
        "experiments.refine.s": (per_op("refine.s"), "s/op"),
        "experiments.refine.share": (acc.get("refine.s", 0.0) / wall if wall else 0.0, "ratio"),
        "experiments.sample_batch.self_s": (per_op("sample_batch.self_s"), "s/op"),
        "experiments.eigvalsh.matrices": (per_op("eigvalsh.matrices"), "matrices/op"),
        "experiments.eigvalsh.s": (per_op("eigvalsh.s"), "s/op"),
        "experiments.histogram.s": (per_op("histogram.s"), "s/op"),
        "ensembles.keying.calls": (per_op("keying.calls"), "calls/op"),
        "ensembles.keying.s": (per_op("keying.s"), "s/op"),
        "ensembles.draw.calls": (per_op("draw.calls"), "calls/op"),
        "ensembles.draw.normals": (per_op("draw.normals"), "normals/op"),
        "ensembles.draw.s": (per_op("draw.s"), "s/op"),
        "ensembles.bytes_assembled": (per_op("bytes"), "computed_B/op"),
        "secular.solve.calls": (per_op("secular.calls"), "calls/op"),
        "secular.solve.roots": (per_op("secular.roots"), "roots/op"),
        "secular.solve.s": (per_op("secular.s"), "s/op"),
        "trace.coverage": (coverage[len(coverage) // 2] if coverage else 0.0, "ratio"),
    }


# Which boundary each workload must exercise (the layer -> workload
# predictions); a zero span count here means a wrapper missed its calls.
EXPECTED_SPANS = {
    "exact-n500": ("specialfn.recurrence", "logspace.slog_sum", "kernels.density",
                   "experiments.find_separated_peaks", "experiments.run_onset_scan",
                   "experiments.exact_density_curve"),
    "mc-small": ("experiments.sample_batch", "numpy.eigvalsh", "numpy.histogram",
                 "ensembles.keying", "ensembles.draw", "experiments.run_density_experiment"),
    "mc-large": ("experiments.sample_batch", "numpy.eigvalsh", "ensembles.keying",
                 "ensembles.draw", "experiments.run_density_experiment"),
    "pointwise": ("specialfn.recurrence", "logspace.slog_sum", "kernels.pointwise",
                  "secular.solve"),
}


def missing_spans(spans, workload: str) -> list:
    seen = {s[0] for s in spans}
    return [name for name in EXPECTED_SPANS[workload] if name not in seen]
