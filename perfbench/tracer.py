"""Run-time span tracer for the urbanflows layers.

``Tracer.install`` wraps the public functions and methods of each layer
module in place, so nothing under ``src/`` changes; ``uninstall`` puts every
original object back.  A wrapper records one span per call (name, parent
span, start, end, phase) in memory; ``summary`` turns the spans into self
times once the traced pass is over.  A *counter* attached to a qualified
name is called with the call's arguments before the call and returns a
function that, once the call has ended, gives one (key, value) count.

Self time of a span is its duration minus the durations of its direct child
spans.  Each span is also charged to a *bucket*, a named layer metric: a span
whose qualified name appears in ``buckets`` starts that bucket (a callable
entry picks the bucket from the call's arguments), and any other span
inherits the bucket of its caller.  A bucket's time is therefore the
time spent inside its entry points minus the time spent inside other
buckets' entry points.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "urbanflows"

# Layer modules, named relative to the package.
LAYERS = (
    "numerics.tape",
    "numerics.kernels",
    "numerics.optim",
    "numerics.params",
    "flow_layers",
    "zone_flow",
    "fusion",
    "config_flow",
    "pipeline",
    "checkpoint",
    "synthdata",
    "metrics",
    "render",
    "cli",
)

# The tape's operator functions and Tensor helpers run about 650k times per
# B=1 generation; a wrapper on each would cost more than the work it
# measures.  Only the whole-graph backward pass is traced in that module.
ONLY = {"numerics.tape": {"Tensor.backward"}}


def _targets(module, layer):
    """Yield (owner, attribute, qualified name, raw object) to wrap.

    Generator functions are skipped: their span would end before they run."""
    allowed = ONLY.get(layer)
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            members = [(module, name, name, obj)]
        elif inspect.isclass(obj):
            members = [(obj, attr, f"{name}.{attr}", raw) for attr, raw in vars(obj).items()
                       if not attr.startswith("_") or attr == "__call__"]
        else:
            continue
        for owner, attr, qual, raw in members:
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if (inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
                    and (allowed is None or qual in allowed)):
                yield owner, attr, qual, raw


class Tracer:
    """Collects spans from wrapped layer functions while installed."""

    def __init__(self, buckets=(), counters=None):
        self.buckets = dict(buckets)
        self.counters = dict(counters or {})
        self.phase = None
        self.spans = []
        self.counts = []
        self._stack = []
        self._patches = []

    # ---- install / uninstall ---------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for layer in LAYERS:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
                for owner, attr, qual, raw in list(_targets(module, layer)):
                    name = f"{layer}.{qual}"
                    wrapped = self._wrap(raw, name, layer)
                    self._patch(owner, attr, wrapped)
                    if owner is module:
                        # names imported with ``from .x import f`` elsewhere
                        for other in modules:
                            if other is not module and vars(other).get(attr) is raw:
                                self._patch(other, attr, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, raw, name, layer):
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, name, layer))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name, layer))
        spans = self.spans
        stack = self._stack
        counter = self.counters.get(name)
        own = self.buckets.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            bucket = own(args) if callable(own) else own
            finish = counter(args) if counter is not None else None
            stack.append(index)
            start = clock()
            try:
                return raw(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, parent, start, end, tracer.phase, bucket)
                if finish is not None:
                    key, value = finish()
                    tracer.counts.append((key, value, tracer.phase))

        return traced

    # ---- results ---------------------------------------------------------

    def summary(self):
        """Per-phase totals: bucket self seconds, layer self seconds and
        counter sums."""
        n = len(self.spans)
        child = [0.0] * n
        bucket = [None] * n
        for i, (_, _, parent, start, end, _, own) in enumerate(self.spans):
            bucket[i] = own if own is not None or parent < 0 else bucket[parent]
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (_, layer, _, start, end, phase, _) in enumerate(self.spans):
            agg = out.setdefault(phase, _empty())
            self_time = end - start - child[i]
            agg["layer"][layer] = agg["layer"].get(layer, 0.0) + self_time
            if bucket[i] is not None:
                agg["bucket"][bucket[i]] = agg["bucket"].get(bucket[i], 0.0) + self_time
        for key, value, phase in self.counts:
            agg = out.setdefault(phase, _empty())
            agg["count"][key] = agg["count"].get(key, 0) + value
        return out


def _empty():
    return {"layer": {}, "bucket": {}, "count": {}}
