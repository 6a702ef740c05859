"""Spans around the public functions of each hyplegendre module, installed
from outside the package.

`Tracer.install` rebinds every listed name in every hyplegendre module
namespace that holds it (modules that did `from .hypergeom import hyp2f1`
hold their own reference), so calls between modules are traced as well as
the benchmark's own calls.  Spans (name, parent, start, end) stay in
memory; a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

from hyplegendre import hypergeom as hg

# The names are fixed here, not read from the library, because
# BENCHMARK.json names a metric for each of them.
LAYERS = {
    "hypergeom": ("hyp2f1", "hyp2f1_derivative", "gamma", "rgamma", "pochhammer", "Hyp2F1"),
    "ode_solutions": ("indicial_exponents", "build_branch", "evaluate",
                      "value_and_derivatives", "residual", "connection_check",
                      "connection_check_second"),
    "legendre_families": ("universal_sum", "universal_hypergeometric",
                          "generalized_solutions", "kuipers_reduction_check"),
    "rng": ("draw_nondegenerate", "draw_ode_params"),
    "verify": ("run_suite", "run_all"),
    "cli": ("emit_table",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
REGIONS = ("terminating", "series", "connection", "pfaff", "z1")
SUITES = ("connection", "connection2", "pfaff", "duplication", "sumform", "kuipers")

_POLE_TOL = 1e-10
_SPLIT = 0.5
_SAMPLE_EVERY = 16  # keep every 16th hyp2f1 call of a region ...
_SAMPLE_CAP = 64  # ... up to this many, for the accuracy check


def _terminates(x: float) -> bool:
    return x < 0.5 and abs(x - round(x)) <= _POLE_TOL


def region(a: float, b: float, z: float) -> str | None:
    """Where a 2F1 evaluation lies, from its arguments alone: a terminating
    series, or the part of the real line z falls in."""
    if _terminates(a) or _terminates(b):
        return "terminating"
    if abs(z) <= _SPLIT:
        return "series"
    if _SPLIT < z < 1.0:
        return "connection"
    if -1.0 < z < -_SPLIT:
        return "pfaff"
    if z == 1.0:
        return "z1"
    return None


class Tracer:
    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.regions = Counter()
        self.samples = {r: [] for r in REGIONS}
        self.sampling = False
        self.suite_ns = Counter()
        self.post_inits = 0
        self._restore = []

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.regions.clear()
        self.suite_ns.clear()
        self.post_inits = 0

    def install(self) -> None:
        """Rebind every listed name; hyplegendre.cli must be imported, which
        imports every module of the package."""
        modules = [m for n, m in sys.modules.items()
                   if n == "hyplegendre" or n.startswith("hyplegendre.")]
        cls = hg.Hyp2F1
        for idx, qual in enumerate(SPAN_NAMES):
            mod, fn = qual.split(".")
            original = getattr(sys.modules[f"hyplegendre.{mod}"], fn, None)
            if original is None:  # removed from the library: reads 0 calls
                continue
            if qual == "hypergeom.hyp2f1":
                wrapper = self._wrap(original, idx, self._after_hyp2f1)
            elif qual == "verify.run_suite":
                wrapper = self._wrap(original, idx, self._after_run_suite)
            else:
                wrapper = self._wrap(original, idx, None)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        post_init = getattr(cls, "__post_init__", None)
        if post_init is None:  # nothing to count constructions by
            return

        def counted_post_init(obj):
            self.post_inits += 1
            post_init(obj)

        self._restore.append((cls, "__post_init__", post_init))
        cls.__post_init__ = counted_post_init

    def remove(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    def _wrap(self, fn, idx: int, after):
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name)
            name.append(idx)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[i] = t1 = clock()
                start[i] = t0
                stack.pop()
                if after is not None:
                    after(args, result, t1 - t0)

        return traced

    def _after_hyp2f1(self, args, result, _ns) -> None:
        p, z = args[0], args[1]
        where = region(p.a, p.b, z)
        self.regions[where] += 1
        if (self.sampling and result is not None and where is not None
                and self.regions[where] % _SAMPLE_EVERY == 1):
            kept = self.samples[where]
            if len(kept) < _SAMPLE_CAP:
                kept.append((p.a, p.b, p.c, z, result))

    def _after_run_suite(self, args, _result, ns) -> None:
        self.suite_ns[args[0]] += ns

    def summary(self) -> dict:
        """Call counts and self time (ns) per span name for this pass."""
        n = len(self.name)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_ns = Counter()
        for i, idx in enumerate(self.name):
            calls[idx] += 1
            self_ns[idx] += end[i] - start[i] - child[i]
        return {
            "calls": {SPAN_NAMES[k]: v for k, v in calls.items()},
            "self_ns": {SPAN_NAMES[k]: v for k, v in self_ns.items()},
            "regions": dict(self.regions),
            "post_inits": self.post_inits,
            "suite_ns": dict(self.suite_ns),
        }

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, parent span index (-1 at the top),
        start and end in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,parent,start_ns,end_ns\n")
            for i, idx in enumerate(self.name):
                fh.write(f"{SPAN_NAMES[idx]},{self.parent[i]},{self.start[i]},{self.end[i]}\n")

