"""Span tracer that wraps bellkit's public functions from outside the package.

bellkit imports functions by name across modules: ``classical_bound`` lives in
the namespaces of ``lhv``, ``optimize``, ``cli``, ``cglmp`` and the package
itself.  A wrapper is therefore installed under every bellkit module attribute
that holds the original function object, and ``restore`` puts each original
back.  Spans stay in memory until the run ends.  The tracer assumes one
thread: the workloads run bellkit with ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Layer:
    """One public function to wrap.

    ``namer`` picks the span name from the call's arguments (used to split
    the Born and fast evaluation paths); ``keep`` keeps the return values so
    counters can be read from them after the run.
    """

    module: str
    attr: str
    keep: bool = False
    namer: Callable[[tuple, dict], str] | None = None

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('bellkit.')}.{self.attr}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, perf_counter()))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def _wrap(self, layer: Layer, original):
        tracer = self
        base = layer.name

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = layer.namer(args, kwargs) if layer.namer else base
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if layer.keep:
                tracer.results.setdefault(name, []).append(result)
            return result

        return wrapper

    def install(self, layers: list[Layer]) -> None:
        originals = [getattr(importlib.import_module(layer.module), layer.attr)
                     for layer in layers]
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "bellkit" or name.startswith("bellkit."))
        ]
        for layer, original in zip(layers, originals):
            wrapper = self._wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)

    def patched_names(self) -> list[str]:
        return sorted(f"{module.__name__}.{key}" for module, key, _ in self._patched)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return sorted(
            f"{module.__name__}.{key}"
            for module, key, original in self._patched
            if getattr(module, key) is not original
        )

    # -- summaries ------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def busy(self, prefix: str) -> float:
        """Inclusive time of spans named ``prefix`` or ``prefix.*``, not
        counting spans nested inside another span of the same prefix."""

        def matches(name: str) -> bool:
            return name == prefix or name.startswith(prefix + ".")

        def nested(span: Span) -> bool:
            parent = span.parent
            while parent >= 0:
                if matches(self.spans[parent].name):
                    return True
                parent = self.spans[parent].parent
            return False

        return sum(span.duration for span in self.spans
                   if matches(span.name) and not nested(span))

    def self_time(self, name: str) -> float:
        """Busy time of ``name`` minus the time of its direct child spans."""
        own = {i for i, span in enumerate(self.spans) if span.name == name}
        total = sum(self.spans[i].duration for i in own)
        children = sum(span.duration for span in self.spans if span.parent in own)
        return total - children

