"""Function spans recorded from outside the program.

``Tracer.install`` replaces every public function of the package, at every
module that binds it (``from .metric import pairwise_distances`` makes a
second binding in ``embedding`` and ``quotient``), with a wrapper that
records a span: calls, self time, total time and exits by exception.
Spans nest; a span's self time is its duration minus the durations of the
spans it directly contains, so the self times of all spans add up to the
durations of the outermost ones.  ``numpy.linalg.eigh``/``eigvalsh`` are
wrapped the same way and count the exact n**3 of their inputs, and
``scipy.integrate.quad`` as bound in ``schoenberg`` adds up the
integrand evaluations from its infodict.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import types
from collections import defaultdict

import numpy as np

#: Functions whose peak allocation (via tracemalloc, scoped to each call) is recorded.
ALLOC_TRACED = {"metric.pairwise_distances", "quotient.regular_permutation_matrices"}

KERNELS = ("eigh", "eigvalsh")


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0})
        self.counts = defaultdict(int)
        self.enabled = False
        self._children = []  # child time of each open span, innermost last
        self._restore = []

    def _span(self, name: str, fn, count=None):
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                count(*args, **kwargs)
            if alloc:
                tracemalloc.start()
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.spans[name]["errors"] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                child = self._children.pop()
                span = self.spans[name]
                span["calls"] += 1
                span["total_s"] += duration
                span["self_s"] += duration - child
                if self._children:
                    self._children[-1] += duration
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = f"{name}.peak_alloc_mb"
                    self.counts[key] = max(self.counts[key], peak)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == self.package or name.startswith(self.package + ".")]
        wrapped = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith(self.package + ".")):
                    if value not in wrapped:
                        layer = value.__module__.rsplit(".", 1)[-1]
                        wrapped[value] = self._span(f"{layer}.{value.__name__}", value)
                    self._patch(module, attr, wrapped[value])

        for kernel in KERNELS:
            def count_n3(a, *args, _key=f"kernel.{kernel}.n3", **kwargs):
                shape = np.shape(a)
                self.counts[_key] += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
            self._patch(np.linalg, kernel,
                        self._span(f"kernel.{kernel}", getattr(np.linalg, kernel), count_n3))

        schoenberg = sys.modules.get(f"{self.package}.schoenberg")
        if schoenberg is not None:
            quad = schoenberg.quad

            @functools.wraps(quad)
            def counted_quad(*args, **kwargs):
                out = quad(*args, **kwargs)
                if self.enabled and kwargs.get("full_output"):
                    self.counts["schoenberg.quad.neval"] += out[2]["neval"]
                return out

            self._patch(schoenberg, "quad", counted_quad)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def value(self, metric: str) -> float:
        """A recorded figure by name: ``<span>.<field>`` or a count; 0 if never seen."""
        if metric in self.counts:
            return self.counts[metric]
        span, _, field = metric.rpartition(".")
        if span in self.spans and field in self.spans[span]:
            return self.spans[span][field]
        return 0
