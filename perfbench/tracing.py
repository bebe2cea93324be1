"""Spans and counts around each layer's public functions, installed from the
benchmark's side without editing the program.

``Tracer.install`` replaces every public function of the six layer modules
(and the ``eval``/``taylor`` methods of each ``DiskFunction`` subclass and
the containment methods of ``BoundaryRegion``) by a wrapper that records a
span.  ``core``, ``bounds`` and ``cli`` bind functions with ``from .x import
y``, so the wrapper replaces the original in every ``ulambda`` module
namespace (and in module-level dicts such as the CLI's command table) that
holds it, not only where it is defined.  ``uninstall`` puts the originals
back.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("series", "diskfun", "core", "geometry", "bounds", "cli")

_REGION_METHODS = ("contains", "distance", "winding_number")


def _size(z) -> int:
    return int(getattr(z, "size", 1))


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _bound(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _eval_many_count(counts, sig, args, kwargs):
    a, z = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "z")
    counts["series.eval_many.macs"] += len(a.coeffs) * _size(z)


def _reciprocal_count(counts, sig, args, kwargs):
    n = _arg(args, kwargs, 0, "a").order
    counts["series.reciprocal.macs"] += n * (n + 1) // 2


def _eval_count(counts, sig, args, kwargs):
    counts["diskfun.eval.points"] += _size(_arg(args, kwargs, 1, "z"))


def _subordination_count(counts, sig, args, kwargs):
    bound = _bound(sig, args, kwargs)
    counts["core.subordination_check.samples"] += bound["angles"] * len(bound["test_radii"])


def _contains_count(counts, sig, args, kwargs):
    counts["geometry.segment_tests"] += len(args[0].samples) - 1


def _c_omega_count(counts, sig, args, kwargs):
    counts["bounds.c_omega_curve.pairs"] += _bound(sig, args, kwargs)["resolution"] ** 2


# work counts derived from the arguments of a call, keyed by span name
_ARG_COUNTS = {
    "series.series_eval_many": _eval_many_count,
    "series.series_reciprocal": _reciprocal_count,
    "core.subordination_check": _subordination_count,
    "geometry.BoundaryRegion.contains": _contains_count,
    "bounds.c_omega_curve": _c_omega_count,
}


class Tracer:
    """In-memory spans ``[name, start, end, parent index, op id]`` and
    per-name call counts for the calls made while installed."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name: str, fn):
        tracer = self
        count = _ARG_COUNTS.get(name)
        if name.startswith("diskfun.") and name.endswith(".eval"):
            count = _eval_count
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                tracer.calls[name] += 1
                if count:
                    count(tracer.counts, sig, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, ulambda) -> None:
        # id(original) -> wrapper; each wrapper holds its original, so ids
        # stay unique while installed
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(ulambda, layer)
            for attr, value in list(vars(mod).items()):
                if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == mod.__name__:
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        self._patch_methods(ulambda.geometry.BoundaryRegion, "geometry.BoundaryRegion", _REGION_METHODS)
        diskfun = ulambda.diskfun
        for cls in vars(diskfun).values():
            if inspect.isclass(cls) and issubclass(cls, diskfun.DiskFunction) and cls is not diskfun.DiskFunction:
                self._patch_methods(cls, f"diskfun.{cls.__name__}", ("eval", "taylor"))
        # replace each original at every site that binds it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ulambda" or mod_name.startswith("ulambda.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set_item(value, key, wrappers[id(item)])

    def _patch_methods(self, cls, prefix: str, methods) -> None:
        for meth in methods:
            if meth in vars(cls):
                self._set(cls, meth, self._wrap(f"{prefix}.{meth}", vars(cls)[meth]))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, old = self._undo.pop()
            setter(owner, key, old)

    def self_times(self) -> dict:
        """{(op id, layer): seconds} of each layer's time outside its child
        spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, parent, op), inner in zip(self.spans, child):
            out[(op, name.split(".", 1)[0])] += end - start - inner
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV: name,start_s,end_s,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
