"""Spans around the calls into each layer, recorded from outside the program.

:func:`instrument` swaps the public functions the layers expose for timing
wrappers and puts them back on exit.  The program itself is unchanged: the
wrappers sit at the module attributes and class methods the callers look
up, so the same code runs with and without tracing.

Spans stay in memory (:attr:`Tracer.spans`) until the run reads them.
Handler threads of the in-process server record spans too; a span opened
on a thread with no open span of its own is parented to the request span
the client thread holds open, so one request's spans share its id and the
server-side work nests inside the HTTP round trip.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Any, Callable, Iterator

from perfbench.metrics import Span

#: (span name, module path, attribute path, count result length?)
#: The attribute is the one the caller resolves at call time: the
#: executor imported ``parse_query`` into its own namespace, so that is
#: where the wrapper must go.
LAYER_CALLS: tuple[tuple[str, str, str, bool], ...] = (
    ("core.query", "repro.core.database", "NepalDB.query", False),
    ("core.query", "repro.core.concurrency", "ReadSnapshot.query", False),
    ("query.parse", "repro.plan.executor", "parse_query", False),
    ("query.typecheck", "repro.plan.executor", "typecheck_query", False),
    ("plan.compile", "repro.plan.planner", "Planner.compile", False),
    ("traverse.find_pathways", "repro.core.concurrency", "SnapshotStore.find_pathways", True),
    ("traverse.find_pathways", "repro.storage.base", "GraphStore.find_pathways", True),
    ("traverse.find_pathways", "repro.storage.durable", "DurableStore.find_pathways", True),
    ("storage.csr_build", "repro.storage.memgraph.store", "build_csr", False),
    ("temporal.validity", "repro.plan.executor", "pathway_validity", False),
    ("temporal.validity", "repro.temporal.validity", "pathway_validity", False),
    ("core.commit", "repro.core.database", "NepalDB.update", False),
    ("core.commit", "repro.core.database", "NepalDB.insert_edge", False),
    ("core.commit", "repro.core.database", "NepalDB.delete", False),
    ("wal.write", "repro.storage.durable", "DurableStore.update_element", False),
    ("wal.write", "repro.storage.durable", "DurableStore.insert_edge", False),
    ("wal.write", "repro.storage.durable", "DurableStore.delete_element", False),
)


class Tracer:
    """Collects spans from any thread; one request is open at a time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request: int | None = None
        self._request_span: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def request(self, request_id: int, name: str) -> Iterator[None]:
        """Open the root span of one client request; spans that other
        threads open while it runs become its children."""
        stack = self._stack()
        span_id = next(self._ids)
        self._request, self._request_span = request_id, span_id
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self._request = self._request_span = None
            self._record(Span(span_id, name, start, end, None, request_id))

    def wrap(self, function: Callable[..., Any], name: str, count: bool) -> Callable[..., Any]:
        """A wrapper timing each call of *function* as a span *name*;
        with *count*, the span records ``len(result)``."""

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else self._request_span
            request = self._request
            span_id = next(self._ids)
            stack.append(span_id)
            start = self.clock()
            items = None
            try:
                result = function(*args, **kwargs)
                if count:
                    items = len(result)
                return result
            finally:
                end = self.clock()
                stack.pop()
                self._record(Span(span_id, name, start, end, parent, request, items))

        return traced


def _resolve(module_path: str, attribute: str) -> tuple[Any, str]:
    import importlib

    owner: Any = importlib.import_module(module_path)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the :data:`LAYER_CALLS` wrappers; restore the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for name, module_path, attribute, count in LAYER_CALLS:
            owner, leaf = _resolve(module_path, attribute)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
