"""The in-memory temporal property-graph store.

Every element (node or edge) is a *version chain*: the open current version
plus closed historical versions.  Updates close the current version at the
transaction time and open a new one; deletes just close it.  This is the
in-memory equivalent of the ``temporal_tables`` current/history pair the
paper uses on Postgres (§5.3), and it yields the same modest history
overhead the evaluation reports, because only changed elements grow chains.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import wraps
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from repro.errors import (
    StorageError,
    UniquenessError,
    UnknownElementError,
)
from repro.model.elements import EdgeRecord, ElementRecord, NodeRecord
from repro.rpe.ast import Atom
from repro.schema.classes import EdgeClass, ElementClass
from repro.schema.registry import Schema
from repro.schema.validate import validate_edge_endpoints, validate_fields
from repro.storage.base import GraphStore, TimeScope
from repro.storage.memgraph.csr import CsrSnapshot, build_csr
from repro.storage.memgraph.indexes import AdjacencyIndex, ClassIndex, FieldEqualityIndex
from repro.storage.memgraph.temporal_index import TemporalClassIndex, TemporalFieldIndex
from repro.temporal.clock import TransactionClock
from repro.temporal.interval import FOREVER, Interval
from repro.util.ids import IdAllocator
from repro.util.locks import ReadWriteLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stats.metrics import MetricsRegistry


def _read_op(method: Callable) -> Callable:
    """Run *method* holding the store's shared read lock."""

    @wraps(method)
    def locked(self: "MemGraphStore", *args: Any, **kwargs: Any) -> Any:
        with self.rwlock.read_locked:
            return method(self, *args, **kwargs)

    return locked


def _write_op(method: Callable) -> Callable:
    """Run *method* holding the store's exclusive write lock."""

    @wraps(method)
    def locked(self: "MemGraphStore", *args: Any, **kwargs: Any) -> Any:
        with self.rwlock.write_locked:
            return method(self, *args, **kwargs)

    return locked


class MemGraphStore(GraphStore):
    """Temporal graph database held in Python dictionaries.

    Concurrency: all state lives in plain dicts, so a reader iterating
    while a writer mutates would crash (``dictionary changed size during
    iteration``) or observe torn multi-dict updates.  A per-store
    :class:`~repro.util.locks.ReadWriteLock` gives reads shared access and
    writes exclusive access; the single-writer commit gate in
    :mod:`repro.core.concurrency` serializes writers *above* this lock and
    keeps open read snapshots isolated.  Multi-call operations (e.g. the
    two inserts of a symmetric edge) are made atomic by that gate, not by
    this lock.
    """

    def __init__(
        self,
        schema: Schema,
        clock: TransactionClock | None = None,
        name: str = "memgraph",
        indexed_fields: tuple[str, ...] = ("name",),
        metrics: "MetricsRegistry | None" = None,
    ):
        super().__init__(schema, clock=clock, name=name)
        self._ids = IdAllocator()
        self._current: dict[int, ElementRecord] = {}
        self._history: dict[int, list[ElementRecord]] = {}
        self._class_of: dict[int, ElementClass] = {}
        self._class_index = ClassIndex()
        self._field_index = FieldEqualityIndex(indexed_fields)
        self._temporal_class = TemporalClassIndex()
        self._temporal_field = TemporalFieldIndex(indexed_fields)
        self._out = AdjacencyIndex()
        self._in = AdjacencyIndex()
        self._metrics = metrics
        self.rwlock = ReadWriteLock()
        #: Ablation / oracle switch: with the temporal indexes disabled,
        #: historical anchors fall back to the brute-force scan over every
        #: uid ever admitted.  The indexes are still *maintained* while
        #: disabled, so the switch can be flipped freely mid-test.
        self.temporal_index_enabled = True
        #: Ablation switch for the vectorized execution layer: with it off
        #: every read runs the row-at-a-time oracle path.  Batch scans also
        #: require ``temporal_index_enabled`` so the temporal ablation keeps
        #: comparing against the genuine brute-force scan.
        self.batch_enabled = True
        #: The batch engine's column layout: built on the first batch read,
        #: then patched by every write (see :meth:`_csr_snapshot`).
        self._csr: CsrSnapshot | None = None
        self._csr_lock = threading.Lock()

    def set_metrics(self, metrics: "MetricsRegistry | None") -> None:
        """Attach (or detach) the registry receiving ``index.*`` events."""
        self._metrics = metrics

    @property
    def supports_snapshots(self) -> bool:
        """Version chains answer ``at(t)`` for any past t: snapshot-capable."""
        return True

    @contextmanager
    def bulk(self) -> Iterator[None]:
        """Hold the write lock across a whole batch, so readers never see
        a half-applied bulk load.  A bulk load rewrites too much to patch
        the CSR write by write, so it is dropped and rebuilt on the next
        batch read."""
        with self.rwlock.write_locked:
            self._csr = None
            yield

    def _event(self, event_name: str, count: int = 1) -> None:
        if self._metrics is not None and count:
            self._metrics.event(event_name, count)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def _allocate_uid(self, uid: int | None, cls: ElementClass) -> tuple[int, bool]:
        """Returns (uid, revived): revived means the uid existed before and
        is being brought back by a snapshot feed (class must match)."""
        if uid is None:
            return self._ids.next(), False
        existing = self._class_of.get(uid)
        if existing is None:
            self._ids.observe(uid)
            return uid, False
        if uid in self._current:
            raise UniquenessError(f"element id {uid} already exists")
        if existing is not cls:
            raise UniquenessError(
                f"element id {uid} was a {existing.name}, cannot revive as {cls.name}"
            )
        return uid, True

    @_write_op
    def insert_node(
        self, class_name: str, fields: Mapping[str, Any] | None = None, uid: int | None = None
    ) -> int:
        cls = self.schema.node_class(class_name)
        normalized = validate_fields(cls, fields or {})
        uid, _ = self._allocate_uid(uid, cls)
        record = NodeRecord(
            uid=uid, cls=cls, fields=normalized,
            period=Interval(self.clock.now(), FOREVER),
        )
        self._admit(record)
        return uid

    @_write_op
    def insert_edge(
        self,
        class_name: str,
        source: int,
        target: int,
        fields: Mapping[str, Any] | None = None,
        uid: int | None = None,
    ) -> int:
        cls = self.schema.edge_class(class_name)
        source_record = self._current.get(source)
        target_record = self._current.get(target)
        if not isinstance(source_record, NodeRecord):
            raise UnknownElementError(f"edge source {source} is not a current node")
        if not isinstance(target_record, NodeRecord):
            raise UnknownElementError(f"edge target {target} is not a current node")
        validate_edge_endpoints(self.schema, cls, source_record.cls, target_record.cls)
        normalized = validate_fields(cls, fields or {})
        uid, revived = self._allocate_uid(uid, cls)
        if revived:
            history = self._history.get(uid)
            assert history, "revived uid must have history"
            last = history[-1]
            assert isinstance(last, EdgeRecord)
            if (last.source_uid, last.target_uid) != (source, target):
                raise UniquenessError(
                    f"edge {uid} endpoints are immutable: "
                    f"({last.source_uid}->{last.target_uid}) != ({source}->{target})"
                )
        record = EdgeRecord(
            uid=uid, cls=cls, fields=normalized,
            period=Interval(self.clock.now(), FOREVER),
            source_uid=source, target_uid=target,
        )
        if not revived:
            self._out.add(source, cls.name, uid)
            self._in.add(target, cls.name, uid)
        self._admit(record)
        return uid

    def _admit(self, record: ElementRecord) -> None:
        self._current[record.uid] = record
        self._class_of[record.uid] = record.cls
        self._class_index.add(record.cls.name, record.uid)
        self._field_index.add(record.cls.name, record.uid, dict(record.fields))
        cls_name = record.cls.name
        start = record.period.start
        self._temporal_class.open(cls_name, record.uid, start)
        self._temporal_field.open(cls_name, record.uid, start, dict(record.fields))
        csr = self._csr
        if csr is not None:
            csr.admit(record)
            self._csr_patched(csr)
        self.bump_data_version()

    def _csr_patched(self, csr: CsrSnapshot) -> None:
        """Account for one in-place CSR patch; compact once the columns
        hold more dead slots than live ones."""
        self._event("executor.batch.csr_patch")
        if csr.dead > csr.live():
            self._csr = build_csr(self)
            self._event("executor.batch.csr_compact")

    @_write_op
    def update_element(self, uid: int, changes: Mapping[str, Any]) -> None:
        current = self._current.get(uid)
        if current is None:
            raise UnknownElementError(f"cannot update unknown or deleted element {uid}")
        merged = dict(current.fields)
        for field_name, value in changes.items():
            if value is None:
                merged.pop(field_name, None)
            else:
                merged[field_name] = value
        normalized = validate_fields(current.cls, merged)
        now = self.clock.now()
        cls_name = current.cls.name
        old_fields = dict(current.fields)
        self._field_index.discard(cls_name, uid, old_fields)
        closed = None
        if now > current.period.start:
            closed = current.with_period(Interval(current.period.start, now))
            self._history.setdefault(uid, []).append(closed)
            # The superseded version keeps its period in the temporal
            # indexes; the replacement opens a fresh posting at *now*.
            self._temporal_class.close(cls_name, uid, now)
            self._temporal_field.close(cls_name, uid, now, old_fields)
            self._temporal_class.open(cls_name, uid, now)
        else:
            # The version opened at this same instant; overwrite in place.
            # The class posting (same uid, same start) is untouched, but
            # the zero-duration field values never existed.
            self._temporal_field.drop_open(cls_name, uid, old_fields)
        replacement = self._reopen(current, normalized, now)
        self._current[uid] = replacement
        self._field_index.add(cls_name, uid, normalized)
        self._temporal_field.open(cls_name, uid, replacement.period.start, normalized)
        csr = self._csr
        if csr is not None:
            csr.update(current, closed, replacement)
            self._csr_patched(csr)
        self.bump_data_version()

    @staticmethod
    def _reopen(
        previous: ElementRecord, fields: dict[str, Any], start: float
    ) -> ElementRecord:
        period = Interval(start, FOREVER)
        if isinstance(previous, EdgeRecord):
            return EdgeRecord(
                uid=previous.uid, cls=previous.cls, fields=fields, period=period,
                source_uid=previous.source_uid, target_uid=previous.target_uid,
            )
        return NodeRecord(
            uid=previous.uid, cls=previous.cls, fields=fields, period=period
        )

    @_write_op
    def delete_element(self, uid: int) -> None:
        current = self._current.get(uid)
        if current is None:
            raise UnknownElementError(f"cannot delete unknown or deleted element {uid}")
        if isinstance(current, NodeRecord):
            for edge_uid in list(self._out.edges(uid)) + list(self._in.edges(uid)):
                if edge_uid in self._current:
                    self.delete_element(edge_uid)
        now = self.clock.now()
        fields = dict(current.fields)
        closed = None
        if now > current.period.start:
            closed = current.with_period(Interval(current.period.start, now))
            self._history.setdefault(uid, []).append(closed)
            self._temporal_class.close(current.cls.name, uid, now)
            self._temporal_field.close(current.cls.name, uid, now, fields)
        else:
            # A version opened and deleted at the same instant never existed.
            self._temporal_class.drop_open(current.cls.name, uid)
            self._temporal_field.drop_open(current.cls.name, uid, fields)
        del self._current[uid]
        self._class_index.discard(current.cls.name, uid)
        self._field_index.discard(current.cls.name, uid, fields)
        csr = self._csr
        if csr is not None:
            csr.delete(current, closed)
            self._csr_patched(csr)
        self.bump_data_version()

    @_write_op
    def reinsert(self, uid: int, fields: Mapping[str, Any] | None = None,
                 source: int | None = None, target: int | None = None) -> int:
        """Bring a previously deleted element back (same uid, same class).

        Snapshot feeds commonly flap elements; the version chain records the
        gap, which is exactly what makes time-range queries interesting.
        """
        if uid in self._current:
            raise UniquenessError(f"element {uid} is already current")
        versions = self._history.get(uid)
        if not versions:
            raise UnknownElementError(f"element {uid} was never stored")
        last = versions[-1]
        normalized = validate_fields(last.cls, dict(fields or last.fields))
        if source is not None or target is not None:
            raise StorageError("edge endpoints are immutable; insert a new edge instead")
        record = self._reopen(last, normalized, self.clock.now())
        if isinstance(record, EdgeRecord):
            for endpoint in (record.source_uid, record.target_uid):
                if not isinstance(self._current.get(endpoint), NodeRecord):
                    raise UnknownElementError(
                        f"cannot reinsert edge {uid}: endpoint {endpoint} is not current"
                    )
        self._admit(record)
        return uid

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def _csr_snapshot(self) -> CsrSnapshot:
        """The store's columnar layout, built on the first batch read.

        There is one CSR per store, kept valid across writes: each write
        method patches it in place under the write lock (O(chain + degree),
        never O(graph)), and rebuilds it only to compact dead slots.
        ``bulk()`` drops it, so the next read builds it again.

        Callers hold the read lock, which keeps the build consistent;
        ``_csr_lock`` only stops concurrent readers duplicating the build.
        """
        snapshot = self._csr
        if snapshot is not None:
            self._event("executor.batch.csr_reuse")
            return snapshot
        with self._csr_lock:
            snapshot = self._csr
            if snapshot is not None:
                return snapshot
            snapshot = build_csr(self)
            self._csr = snapshot
        self._event("executor.batch.csr_build")
        return snapshot

    def _batch_reads(self) -> bool:
        return self.batch_enabled and self.temporal_index_enabled

    def _visible_versions(self, uid: int, scope: TimeScope) -> list[ElementRecord]:
        result: list[ElementRecord] = []
        if not scope.is_current:
            for version in self._history.get(uid, ()):
                if scope.admits(version.period):
                    result.append(version)
        current = self._current.get(uid)
        if current is not None and scope.admits(current.period):
            result.append(current)
        return result

    @_read_op
    def get_element(self, uid: int, scope: TimeScope) -> ElementRecord | None:
        versions = self._visible_versions(uid, scope)
        return versions[-1] if versions else None

    @_read_op
    def get_many(self, uids: Sequence[int], scope: TimeScope) -> dict[int, ElementRecord]:
        """Batched :meth:`get_element` under a single lock acquisition."""
        if self.batch_enabled:
            from repro.plan.batch import batch_get_many

            self._event("executor.batch.point_reads", len(uids))
            return batch_get_many(self._csr_snapshot(), uids, scope)
        result: dict[int, ElementRecord] = {}
        for uid in uids:
            versions = self._visible_versions(uid, scope)
            if versions:
                result[uid] = versions[-1]
        return result

    @_read_op
    def versions(self, uid: int, window: Interval) -> list[ElementRecord]:
        result = [
            version
            for version in self._history.get(uid, ())
            if version.period.overlaps(window)
        ]
        current = self._current.get(uid)
        if current is not None and current.period.overlaps(window):
            result.append(current)
        return result

    def _representative(self, uid: int, atom: Atom, scope: TimeScope) -> ElementRecord | None:
        """Latest visible version satisfying *atom*, or None."""
        for version in reversed(self._visible_versions(uid, scope)):
            if atom.matches(version):
                return version
        return None

    @_read_op
    def scan_atom(self, atom: Atom, scope: TimeScope) -> list[ElementRecord]:
        if atom.cls is None:
            raise StorageError(f"atom {atom.class_name}() must be bound before scanning")
        class_names = self.schema.concrete_names(atom.cls)

        # Batch scans additionally require the temporal ablation switch on,
        # so flipping it off still compares against the true row oracle.
        if self._batch_reads():
            from repro.plan.batch import batch_scan_atom

            results = batch_scan_atom(self, self._csr_snapshot(), atom, class_names, scope)
            if results is not None:
                self._event("executor.batch.scan")
                self._event("executor.batch.scan_rows", len(results))
                return results

        candidate_uids = self._anchor_candidates(atom, class_names, scope)
        results: list[ElementRecord] = []
        for uid in sorted(candidate_uids):
            record = self._representative(uid, atom, scope)
            if record is not None:
                results.append(record)
        return results

    def _anchor_candidates(
        self, atom: Atom, class_names: Sequence[str], scope: TimeScope
    ) -> set[int]:
        uid_value = atom.equality_value("id")
        if uid_value is not None:
            cls = self._class_of.get(int(uid_value))
            if cls is None or not cls.is_subclass_of(atom.cls):
                return set()
            return {int(uid_value)}
        if scope.is_current:
            candidates = self._indexed_equalities(atom, class_names, scope, temporal=False)
            if candidates is not None:
                self._event("index.field.hit")
                return candidates
            self._event("index.class.hit")
            total = len(self._current)
            if total and self._class_index.count(class_names) >= total:
                # Cost gate: the class subtree covers the whole live store
                # (root scans like Element()), so copying and unioning the
                # per-class index sets can only lose to snapshotting the
                # live dict's keys directly.
                self._event("index.class.live_scan")
                return set(self._current)
            return self._class_index.members(class_names)
        if not self.temporal_index_enabled:
            # Ablation / oracle path: the pre-index full-extent scan.
            self._event("index.temporal.scan")
            names = set(class_names)
            return {uid for uid, cls in self._class_of.items() if cls.name in names}
        candidates = self._indexed_equalities(atom, class_names, scope, temporal=True)
        if candidates is not None:
            self._event("index.temporal.field_hit")
            self._event("index.temporal.candidates", len(candidates))
            return candidates
        candidates = self._temporal_class.lookup(class_names, scope)
        self._event("index.temporal.class_hit")
        self._event("index.temporal.candidates", len(candidates))
        return candidates

    def _indexed_equalities(
        self, atom: Atom, class_names: Sequence[str], scope: TimeScope, temporal: bool
    ) -> set[int] | None:
        """Intersection of every indexed equality predicate of *atom*.

        Every predicate an element must satisfy is satisfied by *some*
        version of it, so each indexed lookup yields a superset of the
        answer and the intersection is the tightest index-only candidate
        set — equivalent to starting from the most selective predicate.
        Returns ``None`` when no equality predicate is indexed.
        """
        candidates: set[int] | None = None
        for predicate in atom.predicates:
            if predicate.op != "=":
                continue
            if temporal:
                indexed = self._temporal_field.lookup(
                    class_names, predicate.name, predicate.value, scope
                )
            else:
                indexed = self._field_index.lookup(
                    class_names, predicate.name, predicate.value
                )
            if indexed is None:
                continue
            candidates = indexed if candidates is None else candidates & indexed
            if not candidates:
                break
        return candidates

    def _edge_class_names(
        self, classes: Sequence[EdgeClass] | None
    ) -> list[str] | None:
        if classes is None:
            return None
        names: set[str] = set()
        for cls in classes:
            names.update(self.schema.concrete_names(cls))
        return sorted(names)

    def _expand(
        self,
        adjacency: AdjacencyIndex,
        node_uid: int,
        scope: TimeScope,
        class_names: list[str] | None,
    ) -> list[EdgeRecord]:
        records: list[EdgeRecord] = []
        for edge_uid in adjacency.edges(node_uid, class_names):
            versions = self._visible_versions(edge_uid, scope)
            if versions:
                record = versions[-1]
                assert isinstance(record, EdgeRecord)
                records.append(record)
        return records

    def _expand_many(
        self,
        adjacency: AdjacencyIndex,
        node_uids: Sequence[int],
        scope: TimeScope,
        classes: Sequence[EdgeClass] | None,
    ) -> dict[int, list[EdgeRecord]]:
        """One adjacency expansion for a whole frontier: the class-subtree
        filter is resolved once, then applied per node."""
        class_names = self._edge_class_names(classes)
        self._event("index.expand.batches")
        self._event("index.expand.nodes", len(node_uids))
        if self.batch_enabled:
            from repro.plan.batch import batch_expand_many

            self._event("executor.batch.expand")
            return batch_expand_many(
                self._csr_snapshot(), adjacency is self._out, node_uids, scope, class_names
            )
        return {
            uid: self._expand(adjacency, uid, scope, class_names)
            for uid in node_uids
        }

    @_read_op
    def out_edges(
        self, node_uid: int, scope: TimeScope, classes: Sequence[EdgeClass] | None = None
    ) -> list[EdgeRecord]:
        return self._expand(self._out, node_uid, scope, self._edge_class_names(classes))

    @_read_op
    def in_edges(
        self, node_uid: int, scope: TimeScope, classes: Sequence[EdgeClass] | None = None
    ) -> list[EdgeRecord]:
        return self._expand(self._in, node_uid, scope, self._edge_class_names(classes))

    @_read_op
    def out_edges_many(
        self,
        node_uids: Sequence[int],
        scope: TimeScope,
        classes: Sequence[EdgeClass] | None = None,
    ) -> dict[int, list[EdgeRecord]]:
        return self._expand_many(self._out, node_uids, scope, classes)

    @_read_op
    def in_edges_many(
        self,
        node_uids: Sequence[int],
        scope: TimeScope,
        classes: Sequence[EdgeClass] | None = None,
    ) -> dict[int, list[EdgeRecord]]:
        return self._expand_many(self._in, node_uids, scope, classes)

    # ------------------------------------------------------------------
    # statistics & accounting
    # ------------------------------------------------------------------

    @_read_op
    def class_count(self, class_name: str) -> int:
        cls = self.schema.resolve(class_name)
        return self._class_index.count(self.schema.concrete_names(cls))

    @_read_op
    def class_count_at(self, class_name: str, scope: TimeScope) -> int | None:
        """Scope-aware class cardinality, served by the temporal index.

        Historical anchor costing uses this so churned inventories are
        costed with what existed *then*, not what exists now.
        """
        if scope.is_current:
            return self.class_count(class_name)
        if not self.temporal_index_enabled:
            return None
        cls = self.schema.resolve(class_name)
        return self._temporal_class.count(self.schema.concrete_names(cls), scope)

    @_read_op
    def counts(self) -> dict[str, int]:
        nodes = sum(1 for r in self._current.values() if isinstance(r, NodeRecord))
        edges = len(self._current) - nodes
        history = sum(len(chain) for chain in self._history.values())
        return {
            "nodes": nodes,
            "edges": edges,
            "current_versions": len(self._current),
            "history_versions": history,
        }

    @_read_op
    def storage_cells(self) -> int:
        """Stored cells across all versions (id + class + period + fields)."""
        total = 0
        for record in self._current.values():
            total += 3 + len(record.fields)
        for chain in self._history.values():
            for record in chain:
                total += 3 + len(record.fields)
        return total

    # ------------------------------------------------------------------
    # introspection used by tests and the traversal API
    # ------------------------------------------------------------------

    def reserve_uid(self) -> int:
        return self._ids.next()

    def observe_uid(self, external_id: int) -> None:
        self._ids.observe(external_id)

    @property
    def last_uid(self) -> int:
        return self._ids.last

    @_read_op
    def known_uids(self) -> list[int]:
        """Every uid ever admitted — current, historical, or deleted."""
        return sorted(self._class_of)

    @_read_op
    def current_uids(self) -> list[int]:
        return sorted(self._current)

    @_read_op
    def degree(self, node_uid: int) -> tuple[int, int]:
        """Structural (out, in) degree — includes historical edges."""
        return self._out.degree(node_uid), self._in.degree(node_uid)

    @_read_op
    def temporal_posting_count(self, class_name: str) -> int:
        """Version postings the temporal class index holds for one class."""
        return self._temporal_class.postings_count(class_name)

    @_write_op
    def rebuild_temporal_indexes(self) -> None:
        """Recreate the temporal indexes from the version chains.

        Incremental maintenance must be equivalent to this full rebuild;
        the differential tests flip between them to prove it.  Rebuilding
        inserts closed postings in per-uid (not global end) order, which
        also exercises the postings' lazy re-sort guard.
        """
        self._temporal_class = TemporalClassIndex()
        self._temporal_field = TemporalFieldIndex(self._field_index.indexed_fields)
        for uid, cls in self._class_of.items():
            for version in self._history.get(uid, ()):
                fields = dict(version.fields)
                self._temporal_class.open(cls.name, uid, version.period.start)
                self._temporal_class.close(cls.name, uid, version.period.end)
                self._temporal_field.open(cls.name, uid, version.period.start, fields)
                self._temporal_field.close(cls.name, uid, version.period.end, fields)
            current = self._current.get(uid)
            if current is not None:
                start = current.period.start
                self._temporal_class.open(cls.name, uid, start)
                self._temporal_field.open(cls.name, uid, start, dict(current.fields))
