"""Columnar views of the in-memory store (CSR layout), patched per write.

The row-at-a-time read path walks Python dicts element by element:
``scan_atom`` copies index sets, sorts them, and chases a dict lookup plus
an ``Interval`` method call per candidate; frontier expansion does the
same per edge.  Following the batch-at-a-time execution model of
vectorized engines (MonetDB/X100 style), this module lays the store out
as flat parallel arrays so the batch operators in :mod:`repro.plan.batch`
can replace those inner loops with bisects over sorted interval columns
and tight scans over offset ranges.

A :class:`CsrSnapshot` holds:

* an **interning table**: every uid ever admitted in an ``array('q')``;
  its index is the element's *dense id*.  A fresh build assigns dense ids
  in uid order, later admissions append.  Class names (node and edge
  labels alike) are interned to dense int ids the same way, and a
  parallel int32 array maps each element to its class id.
* **chain columns**: every element's version chain (closed history plus
  the open current version, chronological) stored as parallel start/end
  ``array('d')`` columns plus a record column; element ``d`` owns the
  slots ``[chain_lo[d], chain_hi[d])``.  Starts and ends are each
  ascending within a chain, so the latest version visible in a window
  ``[a, b)`` is found with one bisect and one comparison.
* **class columns**: per concrete class, the current members as a
  uid-sorted column (current-scope scans never sort or copy sets again)
  and the full version set split into (start, uid)-sorted *open* and
  end-sorted *closed* columns (the vectorized temporal-visibility
  filter bisects these instead of calling ``Interval.contains`` per
  element).
* **adjacency CSR**: forward and reverse adjacency flattened into a
  dense-edge-id column with per-node, per-edge-class ``(lo, hi)``
  segments, preserving exactly the ordering contract of
  :meth:`~repro.storage.memgraph.indexes.AdjacencyIndex.edges`.

One CSR lives as long as its store.  :func:`build_csr` makes it on the
first batch read; afterwards every write patches it in place under the
store's write lock (:meth:`CsrSnapshot.admit`, :meth:`CsrSnapshot.update`,
:meth:`CsrSnapshot.delete`).  The transaction clock never moves backwards,
so a write only appends a version to a chain or closes its last, open
entry.  A patch touches only the written element's chain, its endpoints'
adjacency runs and its class columns, using appends, slice moves and
bisects.  A chain or adjacency run that must grow but does not end at its
column's tail moves there, leaving dead slots behind; the store rebuilds
from scratch once :attr:`CsrSnapshot.dead` exceeds :meth:`CsrSnapshot.live`.
Readers hold the read lock and every batch operator returns fresh lists,
so no reader ever sees a patch half-applied.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from repro.model.elements import EdgeRecord, ElementRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.memgraph.store import MemGraphStore


class ClassColumns:
    """Per-class version columns powering batched anchor scans."""

    __slots__ = (
        "current_uids",
        "current_records",
        "open_starts",
        "open_uids",
        "open_records",
        "closed_ends",
        "closed_starts",
        "closed_uids",
        "closed_records",
    )

    def __init__(self) -> None:
        # Current members, uid-ascending (scan output order needs no sort).
        self.current_uids: list[int] = []
        self.current_records: list[ElementRecord] = []
        # Open versions (end == FOREVER), (start, uid)-ascending: visible
        # under a window [a, b) iff start < b, i.e. a bisect prefix.
        self.open_starts: list[float] = []
        self.open_uids: list[int] = []
        self.open_records: list[ElementRecord] = []
        # Closed versions, end-ascending: visible iff end > a (a bisect
        # tail) and start < b (a comparison).
        self.closed_ends: list[float] = []
        self.closed_starts: list[float] = []
        self.closed_uids: list[int] = []
        self.closed_records: list[ElementRecord] = []

    def visible_rows(
        self, a: float, b: float, rows: list[tuple[int, float, ElementRecord]]
    ) -> None:
        """Append every ``(uid, start, record)`` visible in ``[a, b)``."""
        starts = self.open_starts
        for i in range(bisect_left(starts, b)):
            rows.append((self.open_uids[i], starts[i], self.open_records[i]))
        ends = self.closed_ends
        cstarts = self.closed_starts
        for i in range(bisect_right(ends, a), len(ends)):
            start = cstarts[i]
            if start < b:
                rows.append((self.closed_uids[i], start, self.closed_records[i]))

    # -- in-place maintenance ------------------------------------------

    def _open_slot(self, start: float, uid: int) -> int:
        """Index of ``(start, uid)`` in the open columns (or where it goes)."""
        starts = self.open_starts
        lo = bisect_left(starts, start)
        return bisect_left(self.open_uids, uid, lo, bisect_right(starts, start, lo))

    def add_current(self, record: ElementRecord) -> None:
        i = bisect_left(self.current_uids, record.uid)
        self.current_uids.insert(i, record.uid)
        self.current_records.insert(i, record)
        start = record.period.start
        i = self._open_slot(start, record.uid)
        self.open_starts.insert(i, start)
        self.open_uids.insert(i, record.uid)
        self.open_records.insert(i, record)

    def replace_current(self, previous: ElementRecord, record: ElementRecord) -> None:
        """Swap the current record of an element whose version did not move."""
        self.current_records[bisect_left(self.current_uids, record.uid)] = record
        self.open_records[self._open_slot(previous.period.start, record.uid)] = record

    def remove_current(self, previous: ElementRecord) -> None:
        i = bisect_left(self.current_uids, previous.uid)
        del self.current_uids[i]
        del self.current_records[i]
        i = self._open_slot(previous.period.start, previous.uid)
        del self.open_starts[i]
        del self.open_uids[i]
        del self.open_records[i]

    def add_closed(self, record: ElementRecord) -> None:
        # Versions close at the transaction clock's now, which never moves
        # backwards, so appending keeps the ends ascending.
        self.closed_ends.append(record.period.end)
        self.closed_starts.append(record.period.start)
        self.closed_uids.append(record.uid)
        self.closed_records.append(record)


class CsrSnapshot:
    """The columnar view of one :class:`MemGraphStore`, patched per write."""

    __slots__ = (
        "uids",
        "dense_of",
        "class_names",
        "class_id_of",
        "element_class_ids",
        "current_records",
        "chain_lo",
        "chain_hi",
        "chain_starts",
        "chain_ends",
        "chain_records",
        "class_columns",
        "out_segments",
        "out_edge_dense",
        "out_edge_current",
        "out_node_lo",
        "out_node_hi",
        "in_segments",
        "in_edge_dense",
        "in_edge_current",
        "in_node_lo",
        "in_node_hi",
        "dead",
    )

    def __init__(self) -> None:
        #: dense id -> uid; the inverse of :attr:`dense_of`.
        self.uids: array = array("q")
        self.dense_of: dict[int, int] = {}
        #: interned class labels (node and edge classes share one table).
        self.class_names: list[str] = []
        self.class_id_of: dict[str, int] = {}
        #: dense element id -> interned class id (int32 column).
        self.element_class_ids: array = array("i")
        #: dense element id -> current record, or None while deleted.
        self.current_records: list[ElementRecord | None] = []
        # Version chains: dense element d owns slots [chain_lo[d], chain_hi[d]).
        self.chain_lo: array = array("q")
        self.chain_hi: array = array("q")
        self.chain_starts: array = array("d")
        self.chain_ends: array = array("d")
        self.chain_records: list[ElementRecord] = []
        self.class_columns: dict[str, ClassColumns] = {}
        # Adjacency CSR: per dense node id, {edge class name: (lo, hi)}
        # segments into the flat dense-edge-id column.  Segment dict order
        # and in-segment order reproduce AdjacencyIndex.edges() exactly.
        self.out_segments: list[dict[str, tuple[int, int]] | None] = []
        self.out_edge_dense: array = array("q")
        self.in_segments: list[dict[str, tuple[int, int]] | None] = []
        self.in_edge_dense: array = array("q")
        # Unfiltered expansion fast path: a node's class segments are laid
        # out consecutively, so its whole adjacency is one [lo, hi) range —
        # plus the edges' current records materialized as a parallel
        # column, so current-scope waves never touch the chain arrays.
        self.out_node_lo: array = array("q")
        self.out_node_hi: array = array("q")
        self.in_node_lo: array = array("q")
        self.in_node_hi: array = array("q")
        self.out_edge_current: list[ElementRecord | None] = []
        self.in_edge_current: list[ElementRecord | None] = []
        #: Slots left behind in the chain and adjacency columns by moves.
        self.dead = 0

    # ------------------------------------------------------------------
    # chain probes
    # ------------------------------------------------------------------

    def chain_run(self, dense: int, a: float, b: float) -> tuple[int, int]:
        """Indices ``[lo, hi)`` into the chain columns visible in ``[a, b)``.

        Chain starts and ends are each ascending, so the visible versions
        of one element form a contiguous run: drop the prefix whose ends
        are ``<= a`` and the suffix whose starts are ``>= b``.
        """
        lo = self.chain_lo[dense]
        hi = self.chain_hi[dense]
        return (
            bisect_right(self.chain_ends, a, lo, hi),
            bisect_left(self.chain_starts, b, lo, hi),
        )

    def latest_visible_dense(
        self, dense: int, a: float, b: float
    ) -> ElementRecord | None:
        """Latest version of dense element visible in ``[a, b)``, or None.

        The last version with ``start < b`` also has the chain's maximum
        end among that prefix, so a single end comparison decides.
        """
        lo = self.chain_lo[dense]
        hi = bisect_left(self.chain_starts, b, lo, self.chain_hi[dense])
        if hi > lo and self.chain_ends[hi - 1] > a:
            return self.chain_records[hi - 1]
        return None

    def latest_visible(self, uid: int, a: float, b: float) -> ElementRecord | None:
        dense = self.dense_of.get(uid)
        if dense is None:
            return None
        return self.latest_visible_dense(dense, a, b)

    def current_of(self, uid: int) -> ElementRecord | None:
        dense = self.dense_of.get(uid)
        if dense is None:
            return None
        return self.current_records[dense]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def live(self) -> int:
        """Slots in the chain and adjacency columns that reads can reach."""
        total = len(self.chain_records) + len(self.out_edge_dense) + len(self.in_edge_dense)
        return total - self.dead

    def describe(self) -> dict[str, int]:
        return {
            "elements": len(self.uids),
            "classes": len(self.class_names),
            "versions": sum(self.chain_hi) - sum(self.chain_lo),
            "out_adjacency": sum(self.out_node_hi) - sum(self.out_node_lo),
            "in_adjacency": sum(self.in_node_hi) - sum(self.in_node_lo),
        }

    # ------------------------------------------------------------------
    # in-place maintenance (callers hold the store's write lock)
    # ------------------------------------------------------------------

    def _columns(self, class_name: str) -> ClassColumns:
        columns = self.class_columns.get(class_name)
        if columns is None:
            columns = self.class_columns[class_name] = ClassColumns()
        return columns

    def admit(self, record: ElementRecord) -> None:
        """A new element, or a new version of a deleted one (revival)."""
        uid = record.uid
        dense = self.dense_of.get(uid)
        if dense is None:
            dense = len(self.uids)
            self.uids.append(uid)
            self.dense_of[uid] = dense
            self.element_class_ids.append(_intern_class(self, record.cls.name))
            self.current_records.append(record)
            tail = len(self.chain_records)
            self.chain_lo.append(tail)
            self.chain_hi.append(tail)
            self.out_segments.append(None)
            self.in_segments.append(None)
            for column in (self.out_node_lo, self.out_node_hi, self.in_node_lo, self.in_node_hi):
                column.append(0)
            if isinstance(record, EdgeRecord):
                self._link(True, record.source_uid, record, dense)
                self._link(False, record.target_uid, record, dense)
        else:
            self._set_current(dense, record, record)
        self._append_version(dense, record)
        self._columns(record.cls.name).add_current(record)

    def update(
        self,
        previous: ElementRecord,
        closed: ElementRecord | None,
        replacement: ElementRecord,
    ) -> None:
        """*previous* was superseded by *replacement*; *closed* is its closed
        history entry, or None when both opened at the same instant."""
        dense = self.dense_of[previous.uid]
        columns = self._columns(previous.cls.name)
        if closed is None:
            self.chain_records[self.chain_hi[dense] - 1] = replacement
            columns.replace_current(previous, replacement)
        else:
            self._close_last(dense, closed)
            self._append_version(dense, replacement)
            columns.remove_current(previous)
            columns.add_current(replacement)
            columns.add_closed(closed)
        self._set_current(dense, previous, replacement)

    def delete(self, previous: ElementRecord, closed: ElementRecord | None) -> None:
        """*previous* stopped being current; *closed* as in :meth:`update`."""
        dense = self.dense_of[previous.uid]
        columns = self._columns(previous.cls.name)
        if closed is None:
            self._drop_last(dense)
        else:
            self._close_last(dense, closed)
            columns.add_closed(closed)
        columns.remove_current(previous)
        self._set_current(dense, previous, None)

    def _append_version(self, dense: int, record: ElementRecord) -> None:
        starts, ends, records = self.chain_starts, self.chain_ends, self.chain_records
        lo, hi = self.chain_lo[dense], self.chain_hi[dense]
        tail = len(records)
        if hi != tail:
            # Grow at the column tail: move the chain there first.
            starts.extend(starts[lo:hi])
            ends.extend(ends[lo:hi])
            records.extend(records[lo:hi])
            self.dead += hi - lo
            self.chain_lo[dense] = tail
        starts.append(record.period.start)
        ends.append(record.period.end)
        records.append(record)
        self.chain_hi[dense] = len(records)

    def _close_last(self, dense: int, closed: ElementRecord) -> None:
        last = self.chain_hi[dense] - 1
        self.chain_ends[last] = closed.period.end
        self.chain_records[last] = closed

    def _drop_last(self, dense: int) -> None:
        """Forget the open version: it opened and ended at one instant."""
        hi = self.chain_hi[dense]
        if hi == len(self.chain_records):
            del self.chain_starts[-1]
            del self.chain_ends[-1]
            del self.chain_records[-1]
        else:
            self.dead += 1
        self.chain_hi[dense] = hi - 1

    def _adjacency(self, forward: bool) -> tuple:
        if forward:
            return (
                self.out_segments, self.out_edge_dense, self.out_edge_current,
                self.out_node_lo, self.out_node_hi,
            )
        return (
            self.in_segments, self.in_edge_dense, self.in_edge_current,
            self.in_node_lo, self.in_node_hi,
        )

    def _set_current(
        self, dense: int, previous: ElementRecord, record: ElementRecord | None
    ) -> None:
        """Point every column holding *dense*'s current record at *record*."""
        self.current_records[dense] = record
        if not isinstance(previous, EdgeRecord):
            return
        class_name = previous.cls.name
        for forward, node_uid in ((True, previous.source_uid), (False, previous.target_uid)):
            segments, flat, edge_current, _, _ = self._adjacency(forward)
            lo, hi = segments[self.dense_of[node_uid]][class_name]  # type: ignore[index]
            edge_current[flat.index(dense, lo, hi)] = record

    def _link(self, forward: bool, node_uid: int, edge: EdgeRecord, edge_dense: int) -> None:
        """Append a new edge to the end of its class segment in the node's run."""
        segments, flat, edge_current, node_lo, node_hi = self._adjacency(forward)
        node = self.dense_of[node_uid]
        segs = segments[node] or {}
        lo, hi = node_lo[node], node_hi[node]
        tail = len(flat)
        if hi != tail:
            # Grow at the column tail: move the node's run there first.
            flat.extend(flat[lo:hi])
            edge_current.extend(edge_current[lo:hi])
            self.dead += hi - lo
            shift = tail - lo
            segs = {name: (a + shift, b + shift) for name, (a, b) in segs.items()}
            lo, hi = tail, tail + hi - lo
        class_name = edge.cls.name
        segment = segs.get(class_name)
        if segment is None:
            at = hi
            segs[class_name] = (hi, hi + 1)
        else:
            at = segment[1]
            for name, (a, b) in segs.items():
                if a >= at:  # segments laid out after this class's shift by one
                    segs[name] = (a + 1, b + 1)
            segs[class_name] = (segment[0], at + 1)
        flat.insert(at, edge_dense)
        edge_current.insert(at, edge)
        segments[node] = segs
        node_lo[node] = lo
        node_hi[node] = hi + 1


def _intern_class(snapshot: CsrSnapshot, name: str) -> int:
    class_id = snapshot.class_id_of.get(name)
    if class_id is None:
        class_id = len(snapshot.class_names)
        snapshot.class_id_of[name] = class_id
        snapshot.class_names.append(name)
    return class_id


def _build_adjacency(
    snapshot: CsrSnapshot,
    edges_by_node: dict[int, dict[str, list[int]]],
    segments: list[dict[str, tuple[int, int]] | None],
    flat: array,
    node_lo: array,
    node_hi: array,
) -> None:
    dense_of = snapshot.dense_of
    for node_uid, per_class in edges_by_node.items():
        node_dense = dense_of.get(node_uid)
        if node_dense is None:  # pragma: no cover - adjacency implies admitted
            continue
        lo_all = len(flat)
        segs: dict[str, tuple[int, int]] = {}
        for class_name, edge_uids in per_class.items():
            lo = len(flat)
            for edge_uid in edge_uids:
                flat.append(dense_of[edge_uid])
            segs[class_name] = (lo, len(flat))
        segments[node_dense] = segs
        node_lo[node_dense] = lo_all
        node_hi[node_dense] = len(flat)


def build_csr(store: "MemGraphStore") -> CsrSnapshot:
    """Lay *store* out as a fresh, compact :class:`CsrSnapshot`.

    Must run under the store's read or write lock; the snapshot only
    aliases immutable records, never live containers.
    """
    snapshot = CsrSnapshot()
    current = store._current
    history = store._history
    class_of = store._class_of

    uids = snapshot.uids
    dense_of = snapshot.dense_of
    for dense, uid in enumerate(sorted(class_of)):
        uids.append(uid)
        dense_of[uid] = dense

    per_class: dict[str, ClassColumns] = snapshot.class_columns
    opens: dict[str, list[tuple[float, int, ElementRecord]]] = {}
    closeds: dict[str, list[tuple[float, float, int, ElementRecord]]] = {}

    chain_lo = snapshot.chain_lo
    chain_hi = snapshot.chain_hi
    chain_starts = snapshot.chain_starts
    chain_ends = snapshot.chain_ends
    chain_records = snapshot.chain_records
    for uid in uids:
        cls_name = class_of[uid].name
        snapshot.element_class_ids.append(_intern_class(snapshot, cls_name))
        chain_lo.append(len(chain_records))
        closed_rows = closeds.setdefault(cls_name, [])
        for version in history.get(uid, ()):
            chain_starts.append(version.period.start)
            chain_ends.append(version.period.end)
            chain_records.append(version)
            closed_rows.append((version.period.end, version.period.start, uid, version))
        record = current.get(uid)
        snapshot.current_records.append(record)
        if record is not None:
            chain_starts.append(record.period.start)
            chain_ends.append(record.period.end)
            chain_records.append(record)
            opens.setdefault(cls_name, []).append((record.period.start, uid, record))
            columns = per_class.get(cls_name)
            if columns is None:
                columns = per_class[cls_name] = ClassColumns()
            # uid-ascending because the enclosing loop is.
            columns.current_uids.append(uid)
            columns.current_records.append(record)
        chain_hi.append(len(chain_records))

    for cls_name, rows in opens.items():
        # Stable on the uid-ascending rows: (start, uid) order.
        rows.sort(key=lambda row: row[0])
        columns = per_class.setdefault(cls_name, ClassColumns())
        for start, uid, record in rows:
            columns.open_starts.append(start)
            columns.open_uids.append(uid)
            columns.open_records.append(record)
    for cls_name, crows in closeds.items():
        if not crows:
            continue
        crows.sort(key=lambda row: (row[0], row[1]))
        columns = per_class.setdefault(cls_name, ClassColumns())
        for end, start, uid, record in crows:
            columns.closed_ends.append(end)
            columns.closed_starts.append(start)
            columns.closed_uids.append(uid)
            columns.closed_records.append(record)

    for cls in store.schema.classes():
        _intern_class(snapshot, cls.name)

    n = len(uids)
    snapshot.out_segments = [None] * n
    snapshot.in_segments = [None] * n
    zeros = array("q", [0]) * n
    snapshot.out_node_lo = array("q", zeros)
    snapshot.out_node_hi = array("q", zeros)
    snapshot.in_node_lo = array("q", zeros)
    snapshot.in_node_hi = array("q", zeros)
    _build_adjacency(
        snapshot,
        store._out._edges,
        snapshot.out_segments,
        snapshot.out_edge_dense,
        snapshot.out_node_lo,
        snapshot.out_node_hi,
    )
    _build_adjacency(
        snapshot,
        store._in._edges,
        snapshot.in_segments,
        snapshot.in_edge_dense,
        snapshot.in_node_lo,
        snapshot.in_node_hi,
    )
    records = snapshot.current_records
    snapshot.out_edge_current = [records[d] for d in snapshot.out_edge_dense]
    snapshot.in_edge_current = [records[d] for d in snapshot.in_edge_dense]
    return snapshot
