"""The benchmark's own tracer: spans recorded around calls into the program.

The traced run wraps public functions and methods of the program's layers
(``nn``, ``scnn``, ``timeloop``, ``grid``, ``engine``, ``analysis``,
``experiments``) from outside: :meth:`Tracer.patch_function` replaces every
binding of a function object in the loaded ``repro`` modules, so a call is
traced whichever module it was imported into.  Each call records one span —
layer, function, network, start, end, and the nearest traced caller on the
same thread — kept in memory and aggregated when the run ends.

The end-to-end runs install nothing: with tracing off the program runs
unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple


@dataclass
class Span:
    layer: str
    function: str
    network: Optional[str]
    start: float
    end: float = 0.0
    parent: Optional["Span"] = field(default=None, repr=False)
    #: A count the call produced (cycles, products, grid cells), if any.
    value: Optional[float] = None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def inside(self, layer: str) -> bool:
        """Whether a traced caller of this span belongs to ``layer``."""
        ancestor = self.parent
        while ancestor is not None:
            if ancestor.layer == layer:
                return True
            ancestor = ancestor.parent
        return False


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def wrap(
        self,
        func: Callable,
        layer: str,
        network_of: Optional[Callable[..., Optional[str]]] = None,
        value_of: Optional[Callable[..., Optional[float]]] = None,
    ) -> Callable:
        """``func`` wrapped to record a span per call.

        ``network_of(args, kwargs)`` names the network the call works on;
        ``value_of(args, kwargs, result)`` extracts a count from the call.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                layer=layer,
                function=func.__name__,
                network=network_of(args, kwargs) if network_of else None,
                start=0.0,
                parent=stack[-1] if stack else None,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    if span.parent is not None:
                        span.parent.child_time += span.duration
                    tracer.spans.append(span)
            if value_of is not None:
                span.value = value_of(args, kwargs, result)
            return result

        return traced

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch_function(self, module_name: str, name: str, layer: str, **options) -> None:
        """Trace every binding of ``module_name.name`` in the loaded program."""
        original = getattr(importlib.import_module(module_name), name)
        traced = self.wrap(original, layer, **options)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attribute, original))
                    setattr(module, attribute, traced)

    def patch_method(self, cls: type, name: str, layer: str, **options) -> None:
        """Trace calls of method ``cls.name``."""
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, self.wrap(original, layer, **options))

    def uninstall(self) -> None:
        """Put back every original binding."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------------

    def select(
        self, layer: str, network: Optional[str] = None, function: Optional[str] = None
    ) -> List[Span]:
        """Outermost spans of ``layer`` (nested calls of the same layer are
        part of their caller's span), optionally one network or function."""
        return [
            span
            for span in self.spans
            if span.layer == layer
            and (network is None or span.network == network)
            and (function is None or span.function == function)
            and not span.inside(layer)
        ]

    def busy_s(self, layer: str, network: Optional[str] = None) -> float:
        return sum(span.duration for span in self.select(layer, network))

    def self_s(self, layer: str, network: Optional[str] = None) -> float:
        """Busy time minus the time of the traced calls it made."""
        return sum(
            span.duration - span.child_time for span in self.select(layer, network)
        )

    def calls(self, layer: str, network: Optional[str] = None) -> int:
        return len(self.select(layer, network))

    def total(self, layer: str, network: Optional[str] = None) -> float:
        return sum(
            span.value for span in self.select(layer, network) if span.value is not None
        )

    def first_call_s(self, layer: str, function: str) -> float:
        """Duration of the earliest-started call of ``function`` (0 if none)."""
        spans = self.select(layer, function=function)
        return min(spans, key=lambda span: span.start).duration if spans else 0.0

    def covered_s(self, parent_layer: str) -> float:
        """Time the traced calls made by ``parent_layer`` spans take up."""
        return sum(span.child_time for span in self.select(parent_layer))
