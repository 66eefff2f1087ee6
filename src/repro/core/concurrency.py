"""Snapshot-isolated reads and the single-writer commit gate.

The temporal version machinery is already a multi-version store: every
write closes the superseded version into history and stamps the new one
with the transaction clock.  Concurrency therefore does not need a second
copy of anything — a **read snapshot** is just the pair
``(as_of transaction time, data_version)`` captured atomically, and a read
at that snapshot is an ordinary temporal read rewritten to ``AT as_of``.
This is the same trick *Towards Temporal Graph Databases* and the source
paper lean on: the version chains give every reader a consistent as-of
view without blocking the writer.

Three pieces cooperate:

* :class:`SnapshotStore` — a read-only :class:`~repro.storage.base.GraphStore`
  decorator that rewrites every read scope to the pinned instant, freezes
  ``data_version``, and re-presents versions still open at the pin as
  current (so results are byte-identical to what a reader saw before a
  later commit closed them).
* :class:`WriteGate` — the single-writer commit path.  A re-entrant lock
  serializes committers, and a refcounted registry of open pins lets a
  commit push the transaction clock past the newest open snapshot, so
  rows written *after* a pin always stamp *after* it.
* :class:`SnapshotView` / :class:`ReadSnapshot` — the per-store pin map
  threaded through the executor, and the public handle
  :meth:`NepalDB.snapshot` returns.

What is isolated: reads through a pin never observe commits that landed
after the pin, no matter how the writer interleaves.  What is *not*
isolated: writes are single-writer (serialized, not concurrent), census
methods (``counts``/``storage_cells``) report live storage, and backends
without version chains (``supports_snapshots`` False) are always read
live.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import NepalError, QueryDeadlineExceeded, StorageError
from repro.model.elements import EdgeRecord, ElementRecord
from repro.rpe.ast import Atom
from repro.schema.classes import EdgeClass
from repro.storage.base import GraphStore, TimeScope
from repro.temporal.clock import TransactionClock
from repro.temporal.interval import FOREVER, Interval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import NepalDB
    from repro.model.pathway import Pathway
    from repro.plan.program import MatchProgram
    from repro.stats.metrics import MetricsRegistry


class SnapshotPin(NamedTuple):
    """What a snapshot pins for one store."""

    as_of: float
    data_version: int


class SnapshotStore(GraphStore):
    """Read-only view of *inner* at a pinned transaction time.

    Every read scope is rewritten against the pin:

    * ``current`` becomes ``at(as_of)``;
    * ``at(t)`` stays put for ``t <= as_of`` and clamps to ``at(as_of)``
      otherwise (the snapshot's "present" is the pin — the future does
      not exist yet);
    * ``range(s, e)`` is clipped to end no later than just past the pin.

    Versions still open at the pin are re-presented with an open period
    (``end = FOREVER``): the reader pinned a world in which that version
    *was* current, and a later commit closing it must not leak into the
    pinned view even as a changed upper bound.  Versions that start after
    the pin are filtered out of :meth:`versions` for the same reason.

    Writes raise :class:`~repro.errors.StorageError`.  When a per-request
    deadline is set, every read checks it first and raises
    :class:`~repro.errors.QueryDeadlineExceeded` once overrun, which gives
    served queries a cheap cooperative cancellation point.
    """

    def __init__(
        self,
        inner: GraphStore,
        as_of: float,
        data_version: int,
        deadline_at: float | None = None,
        monotonic: Callable[[], float] = time.monotonic,
    ):
        super().__init__(inner.schema, clock=inner.clock, name=inner.name)
        self._inner = inner
        self.as_of = as_of
        self._pinned_version = data_version
        self._horizon = math.nextafter(as_of, math.inf)
        self._deadline_at = deadline_at
        self._monotonic = monotonic

    @property
    def inner(self) -> GraphStore:
        return self._inner

    # -- pin mechanics -----------------------------------------------------

    def _check_deadline(self) -> None:
        if self._deadline_at is not None and self._monotonic() >= self._deadline_at:
            raise QueryDeadlineExceeded(
                f"request deadline exceeded while reading {self.name!r}"
            )

    def _pinned_scope(self, scope: TimeScope) -> TimeScope:
        if scope.kind == TimeScope.CURRENT:
            return TimeScope.at(self.as_of)
        if scope.kind == TimeScope.AT:
            return scope if scope.start <= self.as_of else TimeScope.at(self.as_of)
        if scope.start > self.as_of:
            return TimeScope.at(self.as_of)
        return TimeScope.between(scope.start, min(scope.end, self._horizon))

    def _clip(self, record: ElementRecord) -> ElementRecord:
        period = record.period
        if period.end > self.as_of and period.end != FOREVER:
            return record.with_period(Interval(period.start, FOREVER))
        return record

    # -- read path ---------------------------------------------------------

    def scan_atom(self, atom: Atom, scope: TimeScope) -> list[ElementRecord]:
        self._check_deadline()
        records = self._inner.scan_atom(atom, self._pinned_scope(scope))
        return [self._clip(record) for record in records]

    def get_element(self, uid: int, scope: TimeScope) -> ElementRecord | None:
        self._check_deadline()
        record = self._inner.get_element(uid, self._pinned_scope(scope))
        return None if record is None else self._clip(record)

    def get_many(
        self, uids: Sequence[int], scope: TimeScope
    ) -> dict[int, ElementRecord]:
        self._check_deadline()
        records = self._inner.get_many(uids, self._pinned_scope(scope))
        return {uid: self._clip(record) for uid, record in records.items()}

    def versions(self, uid: int, window: Interval) -> list[ElementRecord]:
        self._check_deadline()
        # A version open at the pin has an open period in the pinned view,
        # so it overlaps ANY window — widen the probe to catch versions the
        # live store considers closed before the window starts.
        probe = window
        if window.start > self.as_of:
            probe = Interval(self.as_of, window.end)
        out: list[ElementRecord] = []
        for version in self._inner.versions(uid, probe):
            if version.period.start > self.as_of:
                continue
            clipped = self._clip(version)
            if clipped.period.overlaps(window):
                out.append(clipped)
        return out

    def out_edges(
        self,
        node_uid: int,
        scope: TimeScope,
        classes: Sequence[EdgeClass] | None = None,
    ) -> list[EdgeRecord]:
        self._check_deadline()
        records = self._inner.out_edges(node_uid, self._pinned_scope(scope), classes)
        return [self._clip(record) for record in records]

    def in_edges(
        self,
        node_uid: int,
        scope: TimeScope,
        classes: Sequence[EdgeClass] | None = None,
    ) -> list[EdgeRecord]:
        self._check_deadline()
        records = self._inner.in_edges(node_uid, self._pinned_scope(scope), classes)
        return [self._clip(record) for record in records]

    def out_edges_many(
        self,
        node_uids: Sequence[int],
        scope: TimeScope,
        classes: Sequence[EdgeClass] | None = None,
    ) -> dict[int, list[EdgeRecord]]:
        self._check_deadline()
        batches = self._inner.out_edges_many(node_uids, self._pinned_scope(scope), classes)
        return {
            uid: [self._clip(record) for record in records]
            for uid, records in batches.items()
        }

    def in_edges_many(
        self,
        node_uids: Sequence[int],
        scope: TimeScope,
        classes: Sequence[EdgeClass] | None = None,
    ) -> dict[int, list[EdgeRecord]]:
        self._check_deadline()
        batches = self._inner.in_edges_many(node_uids, self._pinned_scope(scope), classes)
        return {
            uid: [self._clip(record) for record in records]
            for uid, records in batches.items()
        }

    def class_count(self, class_name: str) -> int:
        self._check_deadline()
        counted = self._inner.class_count_at(class_name, TimeScope.at(self.as_of))
        if counted is not None:
            return counted
        return self._inner.class_count(class_name)

    def class_count_at(self, class_name: str, scope: TimeScope) -> int | None:
        self._check_deadline()
        return self._inner.class_count_at(class_name, self._pinned_scope(scope))

    def counts(self) -> dict[str, int]:
        # Census of live storage (documented as not snapshot-scoped).
        return self._inner.counts()

    def storage_cells(self) -> int:
        return self._inner.storage_cells()

    def known_uids(self) -> list[int]:
        return self._inner.known_uids()

    @property
    def last_uid(self) -> int:
        return self._inner.last_uid

    def find_pathways(self, program: "MatchProgram", scope: TimeScope) -> "list[Pathway]":
        """Generic traversal over *this* store: every element read the
        traversal issues flows back through the pin rewrite above."""
        self._check_deadline()
        from repro.plan.traverse import evaluate_program

        return evaluate_program(self, program, scope)

    # -- version pinning ---------------------------------------------------

    @property
    def data_version(self) -> int:
        return self._pinned_version

    def bump_data_version(self) -> None:
        raise StorageError("read snapshot is immutable")

    def restore_data_version(self, version: int) -> None:
        raise StorageError("read snapshot is immutable")

    # -- write path: rejected ---------------------------------------------

    def _reject_write(self) -> StorageError:
        return StorageError(
            f"store {self.name!r} is pinned at {self.as_of}: snapshots are read-only"
        )

    def insert_node(
        self, class_name: str, fields: Mapping[str, Any] | None = None, uid: int | None = None
    ) -> int:
        raise self._reject_write()

    def insert_edge(
        self,
        class_name: str,
        source: int,
        target: int,
        fields: Mapping[str, Any] | None = None,
        uid: int | None = None,
    ) -> int:
        raise self._reject_write()

    def update_element(self, uid: int, changes: Mapping[str, Any]) -> None:
        raise self._reject_write()

    def delete_element(self, uid: int) -> None:
        raise self._reject_write()

    def bulk(self):
        raise self._reject_write()

    def __getattr__(self, name: str) -> Any:
        # Read-only extras (batch_enabled, degree, ...) fall through to
        # the wrapped store.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class WriteGate:
    """Single-writer commit path plus the registry of open read pins.

    Writers serialize on a re-entrant lock (``connect`` and ``load`` issue
    nested writes).  Each commit consults the open-pin registry: if any
    snapshot is pinned at or after the clock's next stamp, the clock is
    pushed past the newest pin so the commit's rows stay invisible to
    every open snapshot.  With no pins open the clock is left untouched —
    sequential single-threaded use (and every pinned-clock test) sees
    timestamps exactly as before this subsystem existed.
    """

    def __init__(self, metrics: "MetricsRegistry | None" = None):
        self._lock = threading.RLock()
        self._open_pins: dict[float, int] = {}
        self._metrics = metrics
        self.commits = 0

    # -- pin registry ------------------------------------------------------

    def pin(
        self,
        stores: Iterable[GraphStore],
        deadline: float | None = None,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> "SnapshotView | None":
        """Atomically capture ``(as_of, data_version)`` for every
        snapshot-capable store; ``None`` when there is none.

        Taken under the commit lock, so a pin never observes a half-applied
        commit: either all of a commit's rows are before the pin or none
        are.
        """
        with self._lock:
            pins: dict[int, SnapshotPin] = {}
            for store in stores:
                if store.supports_snapshots:
                    pins[id(store)] = SnapshotPin(store.clock.now(), store.data_version)
            if not pins:
                return None
            high = max(pin.as_of for pin in pins.values())
            self._open_pins[high] = self._open_pins.get(high, 0) + 1
        if self._metrics is not None:
            self._metrics.event("concurrency.snapshot.open")
        return SnapshotView(self, pins, high, deadline, monotonic)

    def _release(self, as_of: float) -> None:
        with self._lock:
            count = self._open_pins.get(as_of, 0)
            if count <= 1:
                self._open_pins.pop(as_of, None)
            else:
                self._open_pins[as_of] = count - 1
        if self._metrics is not None:
            self._metrics.event("concurrency.snapshot.close")

    def open_pins(self) -> int:
        with self._lock:
            return sum(self._open_pins.values())

    # -- commit path -------------------------------------------------------

    @contextmanager
    def commit(self, clock: TransactionClock) -> Iterator[None]:
        """Serialize one mutation and keep it invisible to open snapshots."""
        with self._lock:
            if self._open_pins:
                clock.ensure_after(max(self._open_pins))
            yield
            self.commits += 1
        if self._metrics is not None:
            self._metrics.event("concurrency.commits")


class SnapshotView:
    """The per-store pin map one snapshot holds; threaded through the
    executor so evaluation reads route through :class:`SnapshotStore`."""

    __slots__ = ("_gate", "_pins", "_registered", "deadline", "monotonic", "_released")

    def __init__(
        self,
        gate: WriteGate,
        pins: dict[int, SnapshotPin],
        registered: float,
        deadline: float | None = None,
        monotonic: Callable[[], float] = time.monotonic,
    ):
        self._gate = gate
        self._pins = pins
        self._registered = registered
        self.deadline = deadline
        self.monotonic = monotonic
        self._released = False

    def arm_deadline(self) -> float | None:
        """An absolute deadline for one evaluation starting now.

        The view stores a *duration* so a long-held snapshot budgets each
        request afresh instead of dying ``deadline`` seconds after it was
        opened.
        """
        if self.deadline is None:
            return None
        return self.monotonic() + self.deadline

    def pin_for(self, store: GraphStore) -> SnapshotPin | None:
        """The pin captured for *store* (None → read it live)."""
        return self._pins.get(id(store))

    def wrap(self, store: GraphStore) -> GraphStore:
        """*store* pinned at its captured instant (or live when unpinned)."""
        pin = self._pins.get(id(store))
        if pin is None:
            return store
        return SnapshotStore(
            store,
            pin.as_of,
            pin.data_version,
            deadline_at=self.arm_deadline(),
            monotonic=self.monotonic,
        )

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._gate._release(self._registered)

    @property
    def released(self) -> bool:
        return self._released


class ReadSnapshot:
    """A consistent read handle over a :class:`~repro.core.database.NepalDB`.

    Any number of threads may run :meth:`query`/:meth:`find_paths` against
    the same handle concurrently; all of them observe the database exactly
    as it stood when the snapshot was taken, with a frozen
    :attr:`data_version`, regardless of concurrent commits.  Close the
    handle (or use it as a context manager) so the commit gate can stop
    reserving transaction timestamps for it.
    """

    def __init__(self, db: "NepalDB", view: SnapshotView):
        self._db = db
        self._view = view
        self._closed = False
        pin = view.pin_for(db.store)
        if pin is None:
            raise NepalError(
                f"default store {db.store.name!r} does not support snapshots"
            )
        self.as_of = pin.as_of
        self.data_version = pin.data_version
        self._store: GraphStore | None = None

    @property
    def view(self) -> SnapshotView:
        return self._view

    @property
    def store(self) -> GraphStore:
        """The default store pinned at this snapshot (for direct reads)."""
        self._ensure_open()
        if self._store is None:
            self._store = self._view.wrap(self._db.store)
        return self._store

    def _ensure_open(self) -> None:
        if self._closed:
            raise NepalError("read snapshot is closed")

    def query(self, text: str, trace=None):
        """Execute an NPQL query against the pinned view.

        *trace* (a fresh :class:`~repro.stats.tracing.TraceContext`)
        records the execution's span tree without changing its result.
        ``EXPLAIN [ANALYZE]`` prefixes work here too, evaluated against
        the pinned view.
        """
        self._ensure_open()
        db = self._db
        plan = db._maybe_explain(text, snapshot=self._view, trace=trace)
        if plan is not None:
            return plan
        trace, owns_trace = db._sampled_trace(trace)
        started = time.perf_counter() if db.slow_query_log is not None else 0.0
        result = db.executor().execute(text, snapshot=self._view, trace=trace)
        db._record_slow(text, started, result, trace, owns_trace)
        return result

    def find_paths(self, rpe_text: str, at=None, between=None, store: str | None = None):
        """Pathway lookup against the pinned view (see ``NepalDB.find_paths``)."""
        self._ensure_open()
        kwargs = {} if store is None else {"store": store}
        return self._db.find_paths(
            rpe_text, at=at, between=between, snapshot=self, **kwargs
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._view.release()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ReadSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ReadSnapshot(as_of={self.as_of!r}, "
            f"data_version={self.data_version}, {state})"
        )
