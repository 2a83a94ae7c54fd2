"""In-memory span recorder for the traced benchmark run.

`install` wraps the public functions of the layer modules (only the entry
points of `crosscheck` and `cli`) at each place a killdiff module binds
them (a module that did `from .fpe import steady_state` holds its own
binding), so calls are recorded as the calling module makes them.  The program source is not touched; `uninstall` restores the bindings.

A span is (id, name, start, end, parent, item, attrs).  Spans of one
benchmark item share the item label.  Self time is a span's duration minus
the part of it that its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("crosscheck", "cli", "fpe", "montecarlo", "analytic", "numerics")
# crosscheck and cli are traced at their entry points only, so that their
# self time keeps the scenario loop, INI parsing and CSV writing
ENTRY_POINTS = {"crosscheck": ("run_matrix",), "cli": ("main",)}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[str]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The untraced run: item markers cost a method call and record nothing."""

    def begin_item(self, label: str) -> None:
        pass

    def end_item(self) -> None:
        pass


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.item: Optional[str] = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.item)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        # unwind to this span even if an inner span was left open by an exception
        while self._stack and self._stack.pop() != span.id:
            pass

    def begin_item(self, label: str) -> None:
        self.item = label
        self._item_span = self.open("item")

    def end_item(self) -> None:
        self.close(self._item_span)
        self.item = None

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                span.attrs.update(on_return(fn, args, kwargs, result))
            return result

        return traced


def bound_arguments(fn: Callable, args: tuple, kwargs: dict) -> Dict[str, object]:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return dict(ba.arguments)


def install(
    tracer: Tracer, hooks: Dict[str, Callable]
) -> List[Tuple[object, str, Callable]]:
    """Wrap the public functions of every layer module wherever a killdiff
    module binds them.  Returns the replaced bindings for `uninstall`."""
    wrapped: Dict[int, Callable] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"killdiff.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if layer in ENTRY_POINTS and name not in ENTRY_POINTS[layer]:
                continue
            qual = f"{layer}.{name}"
            wrapped[id(obj)] = tracer.wrap(qual, obj, hooks.get(qual))
    replaced = []
    for modname, mod in list(sys.modules.items()):
        if modname != "killdiff" and not modname.startswith("killdiff."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
                replaced.append((mod, name, obj))
    return replaced


def uninstall(replaced: List[Tuple[object, str, Callable]]) -> None:
    for mod, name, original in replaced:
        setattr(mod, name, original)


def covered_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, []), s.start, s.end)
        for s in spans
    }
