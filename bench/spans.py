"""Span recorder for the traced benchmark run.

The recorder wraps the functions at each layer boundary of `ultrafix` from
the outside: it rebinds them in the benchmark process and never edits the
package.  From-imports copy bindings, so a wrapped function is rebound in
every `ultrafix` module whose namespace holds the original object; methods
are rebound on their class.

A layer is a module.  Its boundary functions are the module-level functions
with public names, private ones that another module imports (such as
`calculus._eval_field`), and the public methods, arithmetic operators and
`__post_init__` of its public classes.

Each call records a span: name, layer, start, end, parent span and operation
id.  Spans stay in memory until the run ends.  The `field` layer is folded:
its calls (every scalar operation goes through `field.field_arith`) are far
too many to keep one by one, so they are counted per function and their time
is added to the enclosing span as `folded` time instead.

A span's self time is its duration minus the union of its children's
intervals and minus its folded time.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

from ultrafix.errors import UltrafixError

PACKAGE = "ultrafix"
LAYERS = ("field", "linalg", "calculus", "contraction", "inverse", "implicit", "jsonio", "cli", "sampling")
FOLDED = frozenset({"field"})
_METHOD_DUNDERS = frozenset({"__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__post_init__"})


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    op: int
    folded: float = 0.0  # time of folded-layer calls made directly inside


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus child coverage and folded time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _union_length(children[i], s.start, s.end) - s.folded
        for i, s in enumerate(spans)
    ]


def group_time(spans, names) -> tuple[int, float]:
    """(calls, seconds) of spans named in `names`, counting a call nested
    inside another call of the group only once."""
    names = frozenset(names)
    calls, seconds = 0, 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            calls += 1
            seconds += s.end - s.start
    return calls, seconds


def boundary_functions():
    """(layer, owner, attribute, qualified name) for every boundary function,
    and the modules whose namespaces may hold copies of them."""
    layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    modules = [importlib.import_module(PACKAGE)] + list(layers.values())
    found = []
    for layer, mod in layers.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                imported = any(m is not mod and getattr(m, attr, None) is obj for m in modules)
                if not attr.startswith("_") or imported:
                    found.append((layer, mod, attr, f"{layer}.{attr}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                if layer in FOLDED:
                    continue  # scalar operators reach field_arith, which is wrapped
                for name, member in vars(obj).items():
                    if name.startswith("_") and name not in _METHOD_DUNDERS:
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        found.append((layer, obj, name, f"{layer}.{attr}.{name}"))
    return found, modules


class Tracer:
    """Records spans for calls into ultrafix while installed.

    `hooks` maps a qualified name to f(tracer, args, kwargs, result), called
    after the span closes, for counts read off a returned value.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.records: list[list] = []
        self.calls = Counter()  # calls of folded functions, by qualified name
        self.folded_seconds = Counter()  # outermost folded time, by layer
        self.errors = Counter()  # (layer, kind) raised out of a layer
        self.counts = Counter()  # values added by hooks
        self.op = -1
        self._stack: list[int] = []
        self._folded_depth = 0
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, layer, perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.records[idx][3] = perf_counter()
        self._stack.pop()

    def _raised(self, layer: str, exc, parent: int) -> None:
        if parent < 0 or self.records[parent][1] != layer:
            self.errors[(layer, exc.kind)] += 1

    def _span_wrapper(self, layer, qualname, fn):
        hook = self.hooks.get(qualname)

        def wrapper(*args, **kwargs):
            idx = self.begin(qualname, layer)
            try:
                result = fn(*args, **kwargs)
            except UltrafixError as exc:
                self._raised(layer, exc, self.records[idx][4])
                raise
            finally:
                self.end(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _folded_wrapper(self, layer, qualname, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            if self._folded_depth:
                return fn(*args, **kwargs)
            self._folded_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except UltrafixError as exc:
                self._raised(layer, exc, self._stack[-1] if self._stack else -1)
                raise
            finally:
                elapsed = perf_counter() - start
                self._folded_depth = 0
                self.folded_seconds[layer] += elapsed
                if self._stack:
                    self.records[self._stack[-1]][6] += elapsed

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        found, modules = boundary_functions()
        for layer, owner, attr, qualname in found:
            raw = vars(owner)[attr]
            make = self._folded_wrapper if layer in FOLDED else self._span_wrapper
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(layer, qualname, raw.__func__))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = make(layer, qualname, raw)
            if inspect.isclass(owner):
                self._patch(owner, attr, raw, wrapped)
                continue
            for mod in modules:
                if vars(mod).get(attr) is raw:
                    self._patch(mod, attr, raw, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self.records]
