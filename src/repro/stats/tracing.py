"""Per-query tracing: span trees, EXPLAIN ANALYZE plumbing, slow-query log.

A :class:`TraceContext` records what one query *actually did* as a tree of
:class:`TraceSpan` objects — parse and typecheck (memo hit or fresh),
planning per range variable (plan-cache hit/miss, estimated cardinality),
every executor operator (anchor scans, joins with their strategy and
rows in/out, EXISTS filters, projection), and — through the
:class:`~repro.stats.metrics.MetricsRegistry` event mirror — the storage
and resilience counters that fired while each span was open
(``index.temporal.*`` historical anchor decisions — class or value
columns, or the row path's brute scan — ``index.expand.*`` batched
expansions, ``resilience.retry.*`` / ``resilience.breaker_trip.*``).

Design constraints:

* **Zero-allocation no-op when disabled.**  Code that may run untraced
  asks :func:`current_trace` (one ``ContextVar`` read) and either skips
  instrumentation on ``None`` or goes through :func:`maybe_span`, which
  returns the shared :data:`NULL_SPAN` singleton — no object is allocated
  on the untraced path.  ``benchmarks/bench_trace_overhead.py`` gates the
  cost of these guards.
* **Monotonic timings.**  Span intervals come from ``time.perf_counter``
  so child spans provably nest inside their parents.
* **Thread confinement.**  A context is installed per thread via
  :func:`TraceContext.activate` (a ``ContextVar``), matching the
  executor's one-thread-per-query evaluation; two threads tracing two
  queries never see each other's spans.

The :class:`SlowQueryLog` rides on the same machinery: every Nth query is
traced (sampling), and any query slower than the threshold is kept in a
bounded ring with its timing, row count and — when sampled — span tree.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

_CURRENT: ContextVar["TraceContext | None"] = ContextVar("nepal_trace", default=None)

_TRACE_IDS = iter(range(1, 1 << 62))
_TRACE_ID_LOCK = threading.Lock()


def current_trace() -> "TraceContext | None":
    """The trace installed on this thread, or None (the common case)."""
    return _CURRENT.get()


def next_trace_id() -> str:
    """A fresh process-unique trace id (shared with :class:`TraceContext`).

    The HTTP server stamps every response with one so even untraced
    requests correlate with server logs.
    """
    with _TRACE_ID_LOCK:
        return f"{next(_TRACE_IDS):016x}"


class _NullSpan:
    """Shared no-op span: accepts the full span API, records nothing."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def count(self, key: str, amount: int = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


def maybe_span(trace: "TraceContext | None", name: str, kind: str = "span"):
    """``trace.span(name)`` when tracing, the shared no-op span otherwise."""
    if trace is None:
        return NULL_SPAN
    return trace.span(name, kind=kind)


class TraceSpan:
    """One timed node of the trace tree.

    ``attrs`` holds one-shot facts (anchor choice, join strategy, row
    counts); ``counters`` accumulates repeated events (index hits, retry
    attempts) that fire while the span is the innermost open one.
    """

    __slots__ = ("name", "kind", "start", "end", "attrs", "counters", "children", "_trace")

    def __init__(self, trace: "TraceContext", name: str, kind: str):
        self.name = name
        self.kind = kind
        self.start: float | None = None
        self.end: float | None = None
        self.attrs: dict[str, Any] = {}
        self.counters: dict[str, int] = {}
        self.children: list[TraceSpan] = []
        self._trace = trace

    # -- recording ---------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "TraceSpan":
        self._trace._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._trace._close(self)
        return False

    # -- reading -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def elapsed(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["TraceSpan"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str, **attrs: Any) -> "TraceSpan | None":
        """First descendant (or self) with *name* and matching attrs."""
        for span in self.walk():
            if span.name == name and all(
                span.attrs.get(key) == value for key, value in attrs.items()
            ):
                return span
        return None

    def find_all(self, name: str) -> "list[TraceSpan]":
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready rendering (used by the server's ``?trace=1``)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "elapsed_ms": round(self.elapsed * 1000, 4),
        }
        if self.attrs:
            payload["attrs"] = {key: _jsonable(v) for key, v in self.attrs.items()}
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def render(self, indent: str = "", mask_timings: bool = False) -> str:
        """A human-readable tree rendering (the CLI's trace view)."""
        timing = "?" if mask_timings else f"{self.elapsed * 1000:.3f}"
        bits = [f"{indent}{self.name} [{timing} ms]"]
        for key in sorted(self.attrs):
            bits.append(f"{indent}  {key}={self.attrs[key]}")
        for key in sorted(self.counters):
            bits.append(f"{indent}  {key}: {self.counters[key]}")
        for child in self.children:
            bits.append(child.render(indent + "  ", mask_timings=mask_timings))
        return "\n".join(bits)

    def __repr__(self) -> str:
        return f"<TraceSpan {self.name!r} {len(self.children)} children>"


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class TraceContext:
    """Collects the span tree of one traced query execution.

    The first span opened becomes the root; later top-level spans are
    rejected so a finished trace always has exactly one root.  Use as::

        trace = TraceContext()
        result = db.query(text, trace=trace)
        trace.root.find("join", variable="P").attrs["strategy"]
    """

    def __init__(self, label: str = ""):
        self.trace_id = next_trace_id()
        self.label = label
        self.root: TraceSpan | None = None
        self._stack: list[TraceSpan] = []
        self.clock = time.perf_counter

    # -- span management ---------------------------------------------------

    def span(self, name: str, kind: str = "span") -> TraceSpan:
        """A new (unopened) span; use it as a context manager."""
        return TraceSpan(self, name, kind)

    def _open(self, span: TraceSpan) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            raise RuntimeError(
                f"trace {self.trace_id} already has a root span "
                f"({self.root.name!r}); cannot open second root {span.name!r}"
            )
        span.start = self.clock()
        self._stack.append(span)

    def _close(self, span: TraceSpan) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"trace {self.trace_id}: span {span.name!r} closed out of order"
            )
        span.end = self.clock()
        self._stack.pop()

    @property
    def current(self) -> TraceSpan | None:
        """The innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def count(self, key: str, amount: int = 1) -> None:
        """Accumulate an event counter on the innermost open span.

        The :class:`~repro.stats.metrics.MetricsRegistry` mirrors every
        ``event()`` here, which is how storage/resilience counters land on
        the operator span that caused them.
        """
        span = self.current
        if span is not None:
            span.count(key, amount)

    # -- installation ------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["TraceContext"]:
        """Install as this thread's current trace for the duration."""
        token = _CURRENT.set(self)
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    # -- reading -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the root span has been opened and closed."""
        return self.root is not None and self.root.closed and not self._stack

    def spans(self) -> list[TraceSpan]:
        """Every recorded span, pre-order (empty before the root opens)."""
        return list(self.root.walk()) if self.root is not None else []

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "label": self.label,
            "root": self.root.to_dict() if self.root is not None else None,
        }

    def render(self, mask_timings: bool = False) -> str:
        if self.root is None:
            return f"trace {self.trace_id}: (no spans)"
        header = f"trace {'#' * 16 if mask_timings else self.trace_id}"
        return header + "\n" + self.root.render(mask_timings=mask_timings)

    def validate(self) -> list[str]:
        """Well-formedness problems (empty list when the tree is sound).

        Checks exactly the invariants the property suite asserts: one
        closed root, every span closed, every child interval nested inside
        its parent's, children ordered by start time.
        """
        problems: list[str] = []
        if self.root is None:
            return ["trace has no root span"]
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        for span in self.root.walk():
            if span.start is None or span.end is None:
                problems.append(f"span {span.name!r} never closed")
                continue
            if span.end < span.start:
                problems.append(f"span {span.name!r} ends before it starts")
            previous_start = None
            for child in span.children:
                if child.start is None or child.end is None:
                    continue  # reported when the walk reaches the child
                if child.start < span.start or child.end > span.end:
                    problems.append(
                        f"child {child.name!r} [{child.start}, {child.end}] "
                        f"escapes parent {span.name!r} [{span.start}, {span.end}]"
                    )
                if previous_start is not None and child.start < previous_start:
                    problems.append(
                        f"children of {span.name!r} out of start order at {child.name!r}"
                    )
                previous_start = child.start
        return problems


class SlowQueryLog:
    """Bounded ring of slow queries with sampled trace capture.

    ``threshold`` (seconds) decides what is *slow* enough to keep;
    ``trace_every`` samples every Nth query for full span-tree capture
    (``0`` disables tracing entirely — entries then carry timing and row
    counts only).  Sampling is decided before execution — a trace cannot
    be reconstructed after the fact — so the log trades a small tracing
    tax on one query in N for span trees on a representative sample of
    the slow ones.
    """

    def __init__(
        self,
        threshold: float = 0.25,
        capacity: int = 128,
        trace_every: int = 16,
    ):
        if threshold < 0:
            raise ValueError(f"slow-query threshold must be >= 0, got {threshold}")
        if capacity < 1:
            raise ValueError(f"slow-query capacity must be >= 1, got {capacity}")
        if trace_every < 0:
            raise ValueError(f"trace_every must be >= 0, got {trace_every}")
        self.threshold = threshold
        self.trace_every = trace_every
        self._entries: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seen = 0
        self._recorded = 0
        self._lock = threading.Lock()

    def wants_trace(self) -> bool:
        """Should the next query be traced?  (Counts the query as seen.)"""
        if self.trace_every == 0:
            return False
        with self._lock:
            self._seen += 1
            return (self._seen - 1) % self.trace_every == 0

    def observe(
        self,
        query: str,
        elapsed: float,
        rows: int,
        trace: TraceContext | None = None,
    ) -> bool:
        """Record the query if it crossed the threshold; True when kept."""
        if elapsed < self.threshold:
            return False
        entry: dict[str, Any] = {
            "query": query,
            "elapsed_ms": round(elapsed * 1000, 3),
            "rows": rows,
            "trace_id": trace.trace_id if trace is not None else None,
            "trace": trace.to_dict() if trace is not None else None,
        }
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
        return True

    def entries(self) -> list[dict[str, Any]]:
        """The retained slow queries, oldest first (JSON-ready)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "seen": self._seen,
                "recorded": self._recorded,
                "retained": len(self._entries),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
