"""Nested tracing spans with a no-op-by-default process-global tracer.

The paper's asymmetric cost claim (compile once, re-propagate in
milliseconds) is only as credible as our ability to say *where* the
time goes.  This module provides the span half of the observability
layer: a :class:`Tracer` whose :meth:`Tracer.span` context manager
records wall-clock intervals in a nested tree, one stack per thread.

Design invariants (see DESIGN.md section 8):

- **Off by default.**  The process-global tracer returned by
  :func:`get_tracer` starts disabled.  A disabled tracer still *times*
  the span (two ``perf_counter`` calls and one small object, so code
  like the estimator can read ``span.duration`` functionally) but
  retains nothing: no attributes, no tree, no locks.  Hot paths pay
  ~nothing when tracing is off.
- **Thread safety.**  Each thread keeps its own span stack in
  ``threading.local`` storage; finished root spans append to the
  tracer's shared list under a lock.  A span started on a worker
  thread can be parented under a span owned by another thread by
  passing ``parent=`` explicitly.
- **Exception safety.**  A span always closes, records its duration,
  and is annotated with ``error=<ExceptionType>`` when its body raises;
  the exception propagates unchanged.

Spans use :func:`time.perf_counter` timestamps, so intervals from
different spans of one process are directly comparable (the report
layer exploits this for parent/child containment checks).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
]


class Span:
    """One timed interval in the trace tree.

    ``start`` and ``end`` are :func:`time.perf_counter` timestamps;
    ``children`` are spans fully contained in this one (same thread, or
    explicitly parented cross-thread).
    """

    __slots__ = ("name", "attributes", "start", "end", "children", "_lock")

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}
        self.start: float = 0.0
        self.end: float = 0.0
        self.children: List["Span"] = []
        self._lock = threading.Lock()

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return max(self.end - self.start, 0.0) if self.end else 0.0

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to an open (or closed) span."""
        self.attributes.update(attributes)

    def _add_child(self, child: "Span") -> None:
        with self._lock:
            self.children.append(child)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (recursive)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, children={len(self.children)})"


class _DetachedSpan:
    """Timing-only span used when the tracer is disabled.

    Measures wall time (so ``duration`` stays meaningful to callers)
    but drops attributes and never joins a tree.
    """

    __slots__ = ("start", "end")

    name = ""
    children: List[Span] = []

    def __init__(self) -> None:
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0) if self.end else 0.0

    def annotate(self, **attributes: Any) -> None:
        pass


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attributes", "_parent", "_span")

    def __init__(self, tracer, name, attributes, parent):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._parent = parent
        self._span = None

    def __enter__(self):
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            span = _DetachedSpan()
        else:
            span = Span(self._name, self._attributes)
            tracer._push(span, self._parent)
        self._span = span
        span.start = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb):
        span = self._span
        span.end = time.perf_counter()
        if isinstance(span, Span):
            if exc_type is not None:
                span.annotate(error=exc_type.__name__)
            self._tracer._pop(span, self._parent)
        return False


class Tracer:
    """Collects nested spans; thread-safe; cheap when disabled."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- control ------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans (open stacks are per-thread and kept)."""
        with self._lock:
            self._roots = []

    # -- recording ----------------------------------------------------

    def span(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> _SpanContext:
        """Open a span.  Use as ``with tracer.span("triangulate", circuit=name):``.

        ``parent`` explicitly parents the span (cross-thread nesting);
        otherwise the innermost open span of the *current thread* is
        the parent, and a span opened on a bare thread becomes a root.
        """
        return _SpanContext(self, name, attributes, parent)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span, parent: Optional[Span]) -> None:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if parent is not None:
            parent._add_child(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)

    def _pop(self, span: Span, parent: Optional[Span]) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- results ------------------------------------------------------

    @property
    def roots(self) -> List[Span]:
        """Finished (and still-open) top-level spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def find(self, name: str) -> List[Span]:
        """All recorded spans with the given name (depth-first order)."""
        found: List[Span] = []

        def walk(span: Span) -> None:
            if span.name == name:
                found.append(span)
            for child in span.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return found


#: process-global tracer; disabled until :func:`enable_tracing`.
_default_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (no-op unless enabled)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def enable_tracing(reset: bool = True) -> Tracer:
    """Enable the global tracer (optionally clearing prior spans)."""
    if reset:
        _default_tracer.reset()
    _default_tracer.enable()
    return _default_tracer


def disable_tracing() -> Tracer:
    """Disable the global tracer (recorded spans are kept)."""
    _default_tracer.disable()
    return _default_tracer
