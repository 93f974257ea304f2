"""Spans around the public functions of the levring modules, from outside.

``Tracer.installed()`` replaces every public function of the layer
modules at each name a levring module looks it up under (for example
``levring.dynamics.durand_kerner`` or both ``levring.cli.solve_point`` and
``levring.entanglement.solve_point``) with a wrapper that records a span,
and puts the originals back on exit. Nothing under ``src/`` is edited.

A span is (name, start, end, parent, point id). Spans stay in memory;
``collect()`` folds them into per-function calls and self time (span
minus the part its child spans cover) and keeps the first round's spans
for ``write()``.
"""
from __future__ import annotations

import collections
import contextlib
import inspect
import sys
import time
import warnings
from array import array

import numpy as np

LAYERS = ("cli", "model", "pipeline", "steady_state", "dynamics", "_kernels",
          "spectra", "entanglement")

# A span of one of these opens a new point id unless a point is open.
POINT_ENTRIES = frozenset({"pipeline.solve_point",
                           "entanglement.entanglement_point"})


class _CountingStream:
    """Pass-through text stream that counts the bytes written through it."""

    def __init__(self, stream, counts, key):
        self._stream = stream
        self._counts = counts
        self._key = key

    def write(self, text):
        self._counts[self._key] += len(text.encode("utf-8"))
        return self._stream.write(text)


def _scan_roots(tracer, idx, args, kwargs, result):
    tracer.counts["steady_state.scan_roots.roots"] += len(result)
    parent = tracer.parent[idx]
    if parent >= 0 and tracer.names[tracer.name[parent]] == "steady_state.solve_xs":
        tracer.counts["steady_state.solve_xs.candidates"] += len(result)
        tracer.scanned.add(parent)


def _solve_xs(tracer, idx, args, kwargs, result):
    if idx in tracer.scanned:
        tracer.scanned.discard(idx)
        tracer.counts["steady_state.solve_xs.accepted"] += 1


def _force_balance(tracer, idx, args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    tracer.counts["steady_state.force_balance.points"] += np.size(x)


def _build_model(tracer, idx, args, kwargs, result):
    tracer.counts["dynamics.build_model.stable"] += bool(result.stable)


def _spectrum_sweep(tracer, idx, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["omega_grid"]
    tracer.counts["spectra.spectrum_sweep.omega_points"] += np.size(grid)


def _mean_field_chunk(tracer, idx, args, kwargs, result):
    tracer.counts["_kernels.mean_field_chunk.steps"] += int(args[1])


def _cov_rk4(tracer, idx, args, kwargs, result):
    tracer.counts["_kernels.cov_rk4.steps"] += int(result[1])


def _write_csv(tracer, args, kwargs):
    stream = _CountingStream(args[0], tracer.counts, "cli.write_csv.bytes")
    return (stream,) + tuple(args[1:]), kwargs


AFTER = {
    "steady_state.scan_roots": _scan_roots,
    "steady_state.solve_xs": _solve_xs,
    "steady_state.force_balance": _force_balance,
    "dynamics.build_model": _build_model,
    "spectra.spectrum_sweep": _spectrum_sweep,
    "_kernels.mean_field_chunk": _mean_field_chunk,
    "_kernels.cov_rk4": _cov_rk4,
}
BEFORE = {"cli.write_csv": _write_csv}


def public_functions(module):
    """Public functions (plain or JIT-compiled) defined in module."""
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        origin = getattr(getattr(obj, "py_func", obj), "__module__", None)
        if origin == module.__name__:
            found[id(obj)] = obj
    return found


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.point = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = collections.Counter()
        self.scanned = set()
        self._stack = []
        self._point = -1
        self._next_point = 0
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.rounds = 0
        self.kept = None

    def _id(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    @contextlib.contextmanager
    def point_scope(self):
        """Give the spans of one harness call a fresh point id."""
        self._point = self._next_point
        self._next_point += 1
        try:
            yield
        finally:
            self._point = -1

    def _wrap(self, span, fn):
        nid = self._id(span)
        names, parents, points = self.name, self.parent, self.point
        starts, ends, stack = self.start, self.end, self._stack
        counts, clock = self.counts, time.perf_counter
        after, before = AFTER.get(span), BEFORE.get(span)
        failed_key = span + ".failed"
        is_entry = span in POINT_ENTRIES
        tracer = self

        def wrapper(*args, **kwargs):
            opened = is_entry and tracer._point < 0
            if opened:
                tracer._point = tracer._next_point
                tracer._next_point += 1
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            points.append(tracer._point)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[failed_key] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if opened:
                    tracer._point = -1
            if after is not None:
                after(tracer, idx, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions and count RuntimeWarnings until exit."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules.get("levring." + layer)
            if module is not None:
                for key, obj in public_functions(module).items():
                    targets[key] = (layer, obj)
        patches = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "levring" and not mod_name.startswith("levring."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if attr.startswith("_") or hit is None or hit[1] is not obj:
                    continue
                patches.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{hit[0]}.{attr}", obj))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                yield
        finally:
            for module, attr, obj in reversed(patches):
                setattr(module, attr, obj)
        self.counts["warnings.runtime"] += sum(
            issubclass(w.category, RuntimeWarning) for w in caught)

    def collect(self):
        """Fold this round's spans into the totals; keep the first round's."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        n = len(self.names)
        for i, (c, s) in enumerate(zip(np.bincount(name, minlength=n),
                                       np.bincount(name, weights=own,
                                                   minlength=n))):
            self.calls[self.names[i]] += int(c)
            self.self_s[self.names[i]] += float(s)
        if self.kept is None:
            self.kept = dict(name=name, parent=parent, start=start, end=end,
                             point=np.array(self.point, dtype=np.int64))
        for arr in (self.name, self.parent, self.point, self.start, self.end):
            del arr[:]
        self.scanned.clear()
        self.rounds += 1

    def per_round(self, metric):
        """Value of a per-layer metric `<layer>.<function>.<field>` per round."""
        span, field = metric.rsplit(".", 1)
        if span.startswith("kernels."):
            span = "_" + span
        calls = self.calls[span]
        if field == "calls":
            value = calls
        elif field == "self_s":
            value = self.self_s[span]
        elif field == "stable_ratio":
            return self.counts[span + ".stable"] / calls if calls else 0.0
        elif field == "accept_ratio":
            cand = self.counts[span + ".candidates"]
            return self.counts[span + ".accepted"] / cand if cand else 0.0
        else:
            value = self.counts[f"{span}.{field}"]
        return value / max(self.rounds, 1)

    def write(self, path):
        """Write the kept spans (first traced round) as numpy arrays."""
        if self.kept is None:
            return
        np.savez(path, names=np.array(self.names), **self.kept)
