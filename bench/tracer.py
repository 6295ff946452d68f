"""Span recording around the engine's layers, from outside the engine.

``Tracer`` wraps every public function of each ``oddspin`` layer module,
and the ring methods named in ``METHODS``, in a recorder of spans (name,
start, end, parent).  Modules that re-import a function (``from .bn import
evaluate_taut``) hold their own reference, so every module namespace of
the package that holds the original is repointed at the wrapper.  Leaving
the ``with`` block restores the originals.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = ("cli", "exprparse", "ring", "bn", "linalg", "genus12", "picard", "numerics")

# (module, class, attribute, span name) for methods that carry layer work
METHODS = (
    ("ring", "RingElem", "__mul__", "ring.mul"),
    ("ring", "RingElem", "__pow__", "ring.pow"),
    ("ring", "RingPreset", "element", "ring.element"),
)


def _is_public_function(module, name: str, obj) -> bool:
    # plain functions and lru_cache wrappers defined in this very module
    return (
        not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


def _observers(counters: Counter) -> dict:
    """Per-span counts measured at the layer boundary."""

    def mul(result):
        if hasattr(result, "terms"):
            counters["ring.mul.terms_out"] += len(result.terms)

    def expand(result):
        counters["bn.expand_c_monomial.terms"] += len(result)

    def ht_value(result):
        counters["bn.ht_value.nonzero"] += result != 0

    return {"ring.mul": mul, "bn.expand_c_monomial": expand, "bn.ht_value": ht_value}


class Tracer:
    """Records spans while installed; ``layer_metrics`` summarises them."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "oddspin" or key.startswith("oddspin."))]
        observers = _observers(self.counters)
        wrappers = {}  # by id: module namespaces also hold unhashable values
        for layer in LAYERS:
            module = sys.modules[f"oddspin.{layer}"]
            for attr, obj in list(vars(module).items()):
                if _is_public_function(module, attr, obj):
                    span = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(span, obj, observers.get(span))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"oddspin.{layer}"], cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(span, original, observers.get(span))
            for alias, obj in list(vars(cls).items()):
                if obj is original:  # e.g. __rmul__ = __mul__
                    self._restore.append((cls, alias, obj))
                    setattr(cls, alias, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, inclusive seconds and per-layer self seconds.

        ``<span>.s`` counts only the outermost of nested spans of the same
        name; a layer's self time is the time in its spans not covered by
        their child spans.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_ns: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name.split(".")[0]] += end - start - child_ns[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        out.update(self.counters)
        return out
