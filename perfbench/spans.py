"""Span recorder for the traced run, and the reducer to per-layer metrics.

The recorder wraps the public functions of each gkslmap module at every name
a caller bound them under (``gkslmap.cpanalysis.hermitian_eig`` as well as
``gkslmap.linalg.hermitian_eig``), so calls between modules and calls inside
one module are both seen.  A span is (name, layer, parent, op, start, end);
spans stay in memory until the run ends.  The layers are single-threaded and
never wait on each other, so busy time and counts are all there is to record.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from gkslmap import (
    cli, cpanalysis, experiments, kernel, linalg, profiles, propagate, serialize, trajectory,
)

_MB = 1024.0 * 1024.0


def _points(args, kwargs, result):
    return {"points": int(np.broadcast(*args[1:3]).size)}


def _nodes(args, kwargs, report):
    return {"nodes": len(report.verdicts)}


def _intervals(args, kwargs, div):
    return {
        "intervals": len(div.statuses),
        "indeterminate": sum(s == "indeterminate" for s in div.statuses),
    }


def _scan_points(args, kwargs, result):
    n_failed = len(result.failures)
    return {"points": len(result.g_values) + n_failed, "point_failures": n_failed}


def _dumps_bytes(args, kwargs, text):
    return {"dumps_bytes": len(text.encode("utf-8"))}


def _write_bytes(args, kwargs, result):
    return {"write_bytes": len(args[1].encode("utf-8"))}


def _exit_code(args, kwargs, code):
    return {"exit_2_3": int(code in (2, 3))}


# (layer, module, function names, counter) for module-level functions
_FUNCTIONS = [
    ("kernel", kernel, ("split_kernel", "load_kernel_spec", "save_kernel_spec"), None),
    ("linalg", linalg, ("hermitian_eig",), None),
    ("propagate", propagate, tuple(propagate.__all__), None),
    ("cpanalysis", cpanalysis, ("certify_trajectory",), _nodes),
    ("cpanalysis", cpanalysis, ("divisibility_check",), _intervals),
    ("experiments", experiments, ("g_scan",), _scan_points),
    ("experiments", experiments, ("pair_distance",), None),
    ("trajectory", trajectory, ("trajectory_csv",), None),
    ("serialize", serialize, ("canonical_dumps",), _dumps_bytes),
    ("serialize", serialize, ("atomic_write_text",), _write_bytes),
    ("cli", cli, ("main",), _exit_code),
]

# (layer, class, method names, counter) for methods
_METHODS = [
    ("trajectory", trajectory.MapTrajectory, ("to_doc", "from_doc"), None),
    ("cpanalysis", cpanalysis.CPReport, ("to_doc", "csv_text"), None),
]

# profile classes: only the outermost __call__ is a span (products call factors)
_PROFILE_CLASSES = [
    getattr(profiles, name)
    for name in profiles.__all__
    if name.endswith("Profile") and getattr(profiles, name) is not profiles.Profile
]


class Traced:
    """A workload whose ops, and only its ops, are recorded: checks stay dark."""

    def __init__(self, inner, rec):
        self.inner = inner
        self.rec = rec
        self.inputs = inner.inputs

    def run_op(self, inp):
        self.rec.enabled = True
        try:
            return self.inner.run_op(inp)
        finally:
            self.rec.enabled = False
            self.rec.op += 1

    def check(self, inp, out):
        return self.inner.check(inp, out)


class Recorder:
    """Records spans while installed, during the ops of ``traced`` workloads.

    With ``memory`` set, each outermost propagate call also records its
    tracemalloc peak above the memory traced at entry, in ``solve_peaks``.
    """

    def __init__(self, memory: bool = False):
        self.spans = []  # [name, layer, parent, op, start, end, counts]
        self._stack = []
        self._depth = {}  # open spans per layer
        self.op = 0
        self.enabled = False
        self.memory = memory
        self.solve_peaks = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, name, fn, counter, nested=True):
        """Span around fn; with ``nested`` false, calls inside the same layer are not spans."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = rec._depth.get(layer, 0)
            if not rec.enabled or (depth and not nested):
                return fn(*args, **kwargs)
            outer_solve = layer == "propagate" and depth == 0
            if outer_solve and rec.memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            parent = rec._stack[-1] if rec._stack else -1
            span = [name, layer, parent, rec.op, time.perf_counter(), None, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            rec._depth[layer] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                rec._stack.pop()
                rec._depth[layer] = depth
            counts = counter(args, kwargs, result) if counter else {}
            if outer_solve:
                counts["solves"] = 1
                if rec.memory:
                    rec.solve_peaks.append((tracemalloc.get_traced_memory()[1] - base) / _MB)
            span[6] = counts
            return result

        return wrapper

    def traced(self, workload) -> Traced:
        return Traced(workload, self)

    # -- install / uninstall ----------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public name for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "gkslmap"]
        wrapped = {}
        for layer, module, names, counter in _FUNCTIONS:
            for name in names:
                fn = getattr(module, name)
                wrapped[id(fn)] = (fn, self._wrap(layer, name, fn, counter))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
        for layer, cls, names, counter in _METHODS:
            for name in names:
                raw = cls.__dict__[name]
                self._restore.append((cls, name, raw))
                if isinstance(raw, staticmethod):
                    setattr(cls, name, staticmethod(self._wrap(layer, name, raw.__func__, counter)))
                else:
                    setattr(cls, name, self._wrap(layer, name, raw, counter))
        for cls in _PROFILE_CLASSES:
            raw = cls.__dict__.get("__call__")
            if raw is not None:
                self._restore.append((cls, "__call__", raw))
                cls.__call__ = self._wrap("profiles", cls.__name__, raw, _points, nested=False)

    def _uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, layer, parent, op, start, end, counts in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "parent": parent, "op": op,
                    "start": start, "end": end, "counts": counts,
                }) + "\n")


# ---------------------------------------------------------------------------
# reducer

PER_LAYER = (
    ("profiles.self_s", "s"),
    ("profiles.calls", "count"),
    ("profiles.points", "count"),
    ("kernel.self_s", "s"),
    ("kernel.split_calls", "count"),
    ("propagate.self_s", "s"),
    ("propagate.solves", "count"),
    ("propagate.peak_alloc_mb", "MB"),
    ("linalg.eig_s", "s"),
    ("linalg.eig_calls", "count"),
    ("cpanalysis.self_s", "s"),
    ("cpanalysis.divisibility_s", "s"),
    ("cpanalysis.nodes", "count"),
    ("cpanalysis.intervals", "count"),
    ("cpanalysis.indeterminate_frac", "ratio"),
    ("experiments.self_s", "s"),
    ("experiments.points", "count"),
    ("experiments.point_failures", "count"),
    ("trajectory.to_doc_s", "s"),
    ("trajectory.from_doc_s", "s"),
    ("trajectory.csv_s", "s"),
    ("serialize.dumps_s", "s"),
    ("serialize.dumps_bytes", "B"),
    ("serialize.write_s", "s"),
    ("serialize.write_bytes", "B"),
    ("cli.self_s", "s"),
    ("cli.commands", "count"),
    ("cli.exit_2_3", "count"),
    ("trace.overhead_frac", "ratio"),
)


# (layer, span name) -> metric summing the spans' whole durations
_BUSY = {
    ("linalg", "hermitian_eig"): "linalg.eig_s",
    ("cpanalysis", "divisibility_check"): "cpanalysis.divisibility_s",
    ("trajectory", "to_doc"): "trajectory.to_doc_s",
    ("trajectory", "from_doc"): "trajectory.from_doc_s",
    ("trajectory", "trajectory_csv"): "trajectory.csv_s",
    ("serialize", "canonical_dumps"): "serialize.dumps_s",
    ("serialize", "atomic_write_text"): "serialize.write_s",
}
# (layer, span name) -> metric counting the spans
_CALLS = {
    ("kernel", "split_kernel"): "kernel.split_calls",
    ("linalg", "hermitian_eig"): "linalg.eig_calls",
    ("cli", "main"): "cli.commands",
}


def reduce_spans(spans, n_ops: int) -> dict:
    """Per-op self times, busy times and counts of each layer.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the run is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, layer, parent, op, start, end, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    total = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for i, (name, layer, parent, op, start, end, counts) in enumerate(spans):
        add(f"{layer}.self_s", end - start - child[i])
        for key, value in counts.items():
            add(f"{layer}.{key}", value)
        if layer == "profiles":
            add("profiles.calls", 1)
        if (layer, name) in _BUSY:
            add(_BUSY[layer, name], end - start)
        if (layer, name) in _CALLS:
            add(_CALLS[layer, name], 1)
    out = {key: total.get(key, 0.0) / n_ops for key, _unit in PER_LAYER}
    intervals = total.get("cpanalysis.intervals", 0.0)
    out["cpanalysis.indeterminate_frac"] = (
        total.get("cpanalysis.indeterminate", 0.0) / intervals if intervals else 0.0
    )
    # filled in by the caller from their own passes
    del out["propagate.peak_alloc_mb"], out["trace.overhead_frac"]
    return out
