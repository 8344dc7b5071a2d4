"""Run-time spans around pqbalance's public entry points.

``Tracer.install`` replaces, for the duration of a traced pass, every
module binding of every public function of the layer modules (so the
names ``cli`` imports from ``power`` and ``network``, the package
re-exports, and ``solve_frequency`` as ``solve`` sees it are all
covered) and every public method and arithmetic operator of the public
classes, with a wrapper that records a span: name, layer, start, end,
parent span and item.  ``uninstall`` puts the originals back.  Spans stay
in memory until ``write``.

Self time of a span is its duration minus the durations of its direct
children; summing self times by layer attributes every traced second
to exactly one layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "spectrum", "network", "power", "oracle")
PACKAGE = "pqbalance"
_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


def _mna_size(net):
    nodes = {n for b in net.branches for n in b.nodes} | set(net.port)
    inductors = sum(1 for b in net.branches if b.kind == "inductor")
    return len(nodes) - 1 + inductors + 1


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Spans and work counts for calls into pqbalance."""

    def __init__(self):
        self.spans = []  # (id, parent, item, layer, name, start, end)
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._saved = []
        self._wrappers = {}

    # ------------------------------------------------------------------
    # work counts recorded at call time, keyed by span name

    def _count(self, name, sig, args, kwargs):
        c = self.counts
        c[name + ".calls"] += 1
        if name == "spectrum.LineSpectrum.multiply":
            c["spectrum.multiply.terms"] += len(args[0].lines) * len(args[1].lines)
        elif name == "network.solve":
            net = _arg(sig, args, kwargs, "net")
            c["network.lines"] += len(_arg(sig, args, kwargs, "source").lines)
            c["network.mna_size_sum"] += _mna_size(net)
        elif name == "power.scaled":
            c["power.grid_points"] += (len(_arg(sig, args, kwargs, "t_grid"))
                                       * len(_arg(sig, args, kwargs, "s_grid")))
        elif name == "oracle.ode_transient":
            c["oracle.steps"] += (_arg(sig, args, kwargs, "periods")
                                  * _arg(sig, args, kwargs, "steps_per_period"))

    def _wrap(self, fn, layer, name):
        sig = inspect.signature(fn)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name, sig, args, kwargs)
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.item, layer, name, start, end)

        return traced

    # ------------------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        functions = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[obj] = self._wrapper(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        everywhere = [importlib.import_module(PACKAGE)] + list(modules.values())
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in functions:
                    self._replace(mod, attr, obj, functions[obj])

    def _wrapper(self, fn, layer, name):
        if fn not in self._wrappers:
            self._wrappers[fn] = self._wrap(fn, layer, name)
        return self._wrappers[fn]

    def _wrap_methods(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                self._replace(cls, attr, raw, kind(self._wrapper(raw.__func__, layer, name)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, raw, self._wrapper(raw, layer, name))

    def _replace(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # accounting

    def self_times(self):
        """(span, self seconds) for every recorded span."""
        child = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[6] - span[5]
        return [(s, (s[6] - s[5]) - child[s[0]]) for s in self.spans]

    def write(self, path):
        """Spans as CSV: id,parent,item,layer,name,start_s,end_s."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,item,layer,name,start_s,end_s\n")
            for s in self.spans:
                parent = "" if s[1] is None else s[1]
                fh.write(f"{s[0]},{parent},{s[2]},{s[3]},{s[4]},{s[5]!r},{s[6]!r}\n")
