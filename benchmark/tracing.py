"""In-memory span recorder that wraps the package's public functions.

Tracing lives entirely in the benchmark: `Tracer.install` replaces every
public function of the traced modules with a recording wrapper, at every
name where a caller looks it up (the defining module and every module of
the package that imported it by name), and `Tracer.uninstall` puts the
originals back.  Nothing under ``src/`` knows about it, and the untraced
run never installs it.

A span is ``[name, start, end, parent, op]``: the function's
``<module>.<function>`` name, `time.perf_counter` start and end, the index
of the enclosing span (or -1), and the id of the benchmark op it belongs
to.  A call to a function that already has a span open on the stack
(recursion, e.g. `curves.serialize`) is not a span of its own; its time
stays in the outer span.

Counters give the bases of the per-layer ratios.  They are taken from the
call arguments at the same boundaries as the spans:

* ``dyadic.fwht``: points transformed, plus two *computed* figures:
  ``flops`` = points * log2(n) additions/subtractions (one per point per
  butterfly stage) and ``bytes`` = 16 * points * (log2(n) + 1), one
  float64 read and write per point per stage and for the output
  permutation.  They are a model of the algorithm, not a measurement.
* ``processes.make_innovations``: innovation values drawn.
* ``curves.eval_curve``: curve points evaluated.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "walsh_spectra"
#: modules of the package whose public functions are traced (`presets` is static data)
LAYERS = ("cli", "processes", "curves", "dyadic", "poly", "spectra")
ROOT_SPAN = "bench.op"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fwht_counts(args, kwargs):
    shape = np.shape(_arg(args, kwargs, 0, "values"))
    n = shape[-1] if shape else 0
    if n < 1 or n & (n - 1):
        return {}
    points = int(np.prod(shape))
    stages = n.bit_length() - 1
    return {"points": points, "flops": points * stages, "bytes": 16 * points * (stages + 1)}


def _innovation_counts(args, kwargs):
    return {"values": int(_arg(args, kwargs, 1, "count"))}


def _curve_counts(args, kwargs):
    return {"points": int(np.size(_arg(args, kwargs, 1, "u")))}


COUNTERS = {
    "dyadic.fwht": _fwht_counts,
    "processes.make_innovations": _innovation_counts,
    "curves.eval_curve": _curve_counts,
}


class Tracer:
    """Records spans and counters while installed; aggregates them per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[index][0]] -= 1

    def count(self, key: str, value: float) -> None:
        self.counts[(self.op, key)] += value

    def begin_op(self, op: int) -> int:
        self.op = op
        return self._enter(ROOT_SPAN)

    def end_op(self, index: int) -> None:
        self._exit(index)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    self.count(f"{name}.{key}", value)
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of `LAYERS` wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches = []

    # -- aggregation --------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: ``<span>.total_s``, ``.self_s``, ``.calls`` and every counter.

        Self time is a span's duration minus the time its child spans
        cover (children of one span never overlap: the package runs on one
        thread).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            stats = out[op]
            stats[f"{name}.total_s"] += end - start
            stats[f"{name}.self_s"] += end - start - child[i]
            stats[f"{name}.calls"] += 1
        for (op, key), value in self.counts.items():
            out[op][key] += value
        return out

    def write(self, path) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
