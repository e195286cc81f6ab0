"""Outside-in tracer for the maxclass package.

It wraps every function and public method of the package's modules after
import, without editing the package.  Each module is one layer.  The tracer
keeps exact call counts and per-layer self time, and records spans only at
a few coarse boundaries.  Hot kernels such as the ``CycElt`` methods run
about a million times per job, so they get a counter each and no span.

Self time is measured only where control crosses from one layer into
another.  A call that stays inside the caller's layer just bumps its counter,
so the clock is read twice per layer crossing, not twice per call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cyclotomic", "homs", "liering", "freelie", "lazard", "frame", "isom", "verify", "cli")

# Dunder methods that are ring operations and so are counted.  The other
# underscore methods (object protocol, private helpers) run inside their
# own class's methods, so their time already lands in the right layer.
OPERATORS = frozenset({"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__"})

# The coarse boundaries that get spans, with a parent id each.
SPAN_FUNCTIONS = frozenset({
    "frame.enumerate_frame", "homs.in_Hhat", "liering.jacobi_exponent",
    "isom.find_certified_move", "frame.verify_maximal_class",
})


class IncompleteTrace(RuntimeError):
    """Some package function is still reachable without its wrapper."""


def _is_wrapper(fn) -> bool:
    return getattr(fn, "__perfbench_wrapper__", False)


def _methods(cls):
    """(name, attribute, function) for each method of cls that gets a wrapper."""
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in OPERATORS:
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            yield name, attr, attr.__func__
        elif isinstance(attr, property):
            yield name, attr, attr.fget
        elif inspect.isfunction(attr):
            yield name, attr, attr


class Tracer:
    """Counts and per-layer self times for one process.

    Create it after ``maxclass`` is imported, then call ``install``.  The
    wrappers stay installed for the rest of the process.
    """

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.spans: list[list] = []      # [name, parent index, start, end]
        self._span_stack = [-1]
        self._stack = [[None, 0.0]]      # [layer, time spent in child layers]
        self._originals: dict[int, object] = {}
        self._modules = []

    # ---- counters ----

    def _cell(self, key: str) -> list[int]:
        c = self.counts.get(key)
        if c is None:
            c = self.counts[key] = [0]
        return c

    # ---- wrappers ----

    def _wrap(self, fn, layer: str, key: str):
        if inspect.isgeneratorfunction(fn):
            w = self._wrap_generator(fn, layer, key)
        else:
            w = self._wrap_call(fn, layer, key)
        if key in SPAN_FUNCTIONS:
            w = self._wrap_span(w, key)
        w = functools.wraps(fn)(w)
        w.__perfbench_wrapper__ = True
        self._originals[id(fn)] = w
        return w

    def _wrap_call(self, fn, layer, key):
        calls = self._cell(key + ".calls")
        raised = self._cell(layer + ".precision_exhausted")
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter
        pe = self._precision_exhausted

        def wrapper(*args, **kwargs):
            calls[0] += 1
            if stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except pe as exc:
                # count each raise once, in the layer it first leaves
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    raised[0] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                stack[-1][1] += dt
        return wrapper

    def _wrap_generator(self, fn, layer, key):
        # the body runs on each resume, so the layer is entered per item
        calls, items = self._cell(key + ".calls"), self._cell(key + ".items")
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[0] += 1
            it = fn(*args, **kwargs)
            while True:
                nested = stack[-1][0] is layer
                if not nested:
                    frame = [layer, 0.0]
                    stack.append(frame)
                    t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if not nested:
                        dt = clock() - t0
                        stack.pop()
                        self_s[layer] += dt - frame[1]
                        stack[-1][1] += dt
                items[0] += 1
                yield item
        return wrapper

    def _wrap_span(self, inner, key):
        spans, span_stack, clock = self.spans, self._span_stack, time.perf_counter
        observe = self._observer(key)
        pe = self._precision_exhausted

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [key, span_stack[-1], clock(), None]
            spans.append(rec)
            span_stack.append(sid)
            try:
                result = inner(*args, **kwargs)
            except pe:
                observe(None, True)
                raise
            finally:
                rec[3] = clock()
                span_stack.pop()
            observe(result, False)
            return result
        return wrapper

    def _observer(self, key):
        """Outcome counters read from results, as no counter exists inside."""
        if key == "homs.in_Hhat":
            accepted, raised = self._cell(key + ".accepted"), self._cell(key + ".raised")

            def observe(result, raised_now):
                if raised_now:
                    raised[0] += 1
                elif result:
                    accepted[0] += 1
        elif key == "liering.jacobi_exponent":
            atleast = self._cell(key + ".atleast")

            def observe(result, raised_now):
                if not raised_now and not result.exact:
                    atleast[0] += 1
        elif key == "isom.find_certified_move":
            certified = self._cell("isom.certified")

            def observe(result, raised_now):
                if not raised_now and result is not None:
                    certified[0] += 1
        else:
            def observe(result, raised_now):
                pass
        return observe

    # ---- installation ----

    def install(self) -> Tracer:
        """Wrap the package, rebind every copied name, and check completeness."""
        from maxclass.cyclotomic import PrecisionExhausted
        self._precision_exhausted = PrecisionExhausted
        self._modules = [sys.modules["maxclass"]] + [
            sys.modules[f"maxclass.{layer}"] for layer in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"maxclass.{layer}"]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    setattr(mod, name, self._wrap(obj, layer, f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        # `from .homs import gamma_eval` and the package re-exports hold the
        # original function objects: point each of them at the wrapper
        for mod in self._modules:
            for name, obj in list(vars(mod).items()):
                w = self._originals.get(id(obj))
                if w is not None and inspect.isfunction(obj) and not _is_wrapper(obj):
                    setattr(mod, name, w)
        self.check_complete()
        return self

    def _wrap_class(self, cls, layer):
        for name, attr, fn in _methods(cls):
            w = self._wrap(fn, layer, f"{layer}.{cls.__name__}.{name}")
            if isinstance(attr, property):
                w = property(w, attr.fset, attr.fdel, attr.__doc__)
            elif isinstance(attr, (staticmethod, classmethod)):
                w = type(attr)(w)
            setattr(cls, name, w)

    def check_complete(self) -> None:
        """Fail when a package function can still be reached unwrapped."""
        missed = []
        for mod in self._modules:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__.startswith("maxclass")
                        and not _is_wrapper(obj)):
                    missed.append(f"{mod.__name__}.{name}")
                elif inspect.isclass(obj) and obj.__module__.startswith("maxclass"):
                    missed += [f"{mod.__name__}.{name}.{mname}"
                               for mname, _, fn in _methods(obj) if not _is_wrapper(fn)]
        if missed:
            raise IncompleteTrace("unwrapped: " + ", ".join(sorted(set(missed))))

    # ---- report ----

    def inclusive_s(self, name: str) -> float:
        """Total time inside outermost spans of one function."""
        spans = self.spans
        total = 0.0
        for rec in spans:
            if rec[0] != name:
                continue
            parent = rec[1]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                total += rec[3] - rec[2]
        return total

    def report(self) -> dict:
        return {
            "counts": {k: c[0] for k, c in sorted(self.counts.items())},
            "self_s": dict(self.self_s),
            "inclusive_s": {name: self.inclusive_s(name) for name in
                            ("frame.verify_maximal_class", "isom.find_certified_move")},
        }

    def dump_spans(self, path) -> None:
        """Write the coarse spans as JSON lines: name, parent index, start, end."""
        import json
        with open(path, "w", encoding="utf-8") as fh:
            for n, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": n, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
