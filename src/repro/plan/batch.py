"""Column-batch operators over :class:`~repro.storage.memgraph.csr.CsrSnapshot`.

These replace the row-at-a-time inner loops of the read hot path:

* :func:`batch_scan_atom` — anchor scans that sweep the class- or
  value-keyed columns of a CSR snapshot.  Current-scope scans walk the
  uid-sorted member columns directly (no set copies, no sort); historical
  scans run the vectorized temporal-visibility filter — two bisects per
  column instead of an ``Interval`` call per version — then pick each
  element's representative with late materialization: records are only
  touched for versions that survived the visibility filter, and
  predicates only run on the newest-first candidates per uid.
* :func:`batch_class_count` — historical class cardinalities for anchor
  costing, from the same columns.
* :func:`batch_expand_many` — wave-at-a-time frontier expansion walking
  CSR ``(lo, hi)`` offset ranges per (node, edge class) instead of
  re-resolving adjacency dicts per element.
* :func:`batch_get_many` — batched point reads answering a whole
  frontier of uids with one chain bisect each.

Every operator is a drop-in for its row twin and must return *identical*
results (same records, same order) — the Hypothesis differential in
``tests/plan/test_batch_execution.py`` holds them to that.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Sequence

from repro.model.elements import EdgeRecord, ElementRecord
from repro.schema.classes import field_value_key
from repro.storage.base import TimeScope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rpe.ast import Atom
    from repro.storage.memgraph.csr import ClassColumns, CsrSnapshot
    from repro.storage.memgraph.store import MemGraphStore


def _window(scope: TimeScope) -> tuple[float, float]:
    window = scope.window()
    return window.start, window.end


def _chain_representatives(
    csr: "CsrSnapshot", uids: Sequence[int], atom: "Atom", a: float, b: float
) -> list[ElementRecord]:
    """Representatives for a sorted historical uid batch via chain bisects:
    per uid, the newest version visible in ``[a, b)`` that satisfies *atom*."""
    dense_of = csr.dense_of
    records = csr.chain_records
    results: list[ElementRecord] = []
    for uid in uids:
        dense = dense_of.get(uid)
        if dense is None:
            continue
        lo, hi = csr.chain_run(dense, a, b)
        for i in range(hi - 1, lo - 1, -1):
            record = records[i]
            if atom.matches(record):
                results.append(record)
                break
    return results


def _point_scan(
    csr: "CsrSnapshot", uid: int, atom: "Atom", scope: TimeScope
) -> list[ElementRecord]:
    """A uid-equality anchor: one chain probe, with the row path's
    subclass check (an element's class never changes)."""
    dense = csr.dense_of.get(uid)
    if dense is None:
        return []
    if scope.is_current:
        record = csr.current_records[dense]
        candidates = [] if record is None else [record]
    else:
        lo, hi = csr.chain_run(dense, *_window(scope))
        candidates = csr.chain_records[lo:hi][::-1]
    for record in candidates:
        if not record.cls.is_subclass_of(atom.cls):
            return []
        if atom.matches(record):
            return [record]
    return []


def _value_columns(
    csr: "CsrSnapshot", atom: "Atom", class_names: Sequence[str]
) -> list["ClassColumns"] | None:
    """The value-keyed columns of *atom*'s most selective indexed equality,
    or ``None`` when no equality names an indexed field.

    Every predicate an element must satisfy is satisfied by *some* visible
    version of it, so any one indexed equality yields a superset of the
    answer's uids; the smallest column set is the cheapest superset.
    """
    best: list[ClassColumns] | None = None
    best_size = 0
    for predicate in atom.predicates:
        if predicate.op != "=" or predicate.name not in csr.indexed_fields:
            continue
        key = field_value_key(predicate.value)
        columns = csr.columns_of((name, predicate.name, key) for name in class_names)
        size = sum(cols.size() for cols in columns)
        if best is None or size < best_size:
            best, best_size = columns, size
    return best


def _current_scan(
    columns: list["ClassColumns"], atom: "Atom", trivial: bool
) -> list[ElementRecord]:
    """Current members of *columns*, uid-ascending, that satisfy *atom*."""
    present = [cols for cols in columns if cols.current_uids]
    if len(present) == 1:
        # A single member column is already uid-ascending.
        if trivial:
            return list(present[0].current_records)
        return [r for r in present[0].current_records if atom.matches(r)]
    pairs: list[tuple[int, ElementRecord]] = []
    for cols in present:
        pairs.extend(zip(cols.current_uids, cols.current_records))
    pairs.sort(key=lambda pair: pair[0])
    if trivial:
        return [record for _, record in pairs]
    return [record for _, record in pairs if atom.matches(record)]


def batch_scan_atom(
    store: "MemGraphStore",
    csr: "CsrSnapshot",
    atom: "Atom",
    class_names: Sequence[str],
    scope: TimeScope,
) -> list[ElementRecord]:
    """Columnar ``scan_atom`` at every scope.

    A uid equality is one chain probe; an equality on an indexed field
    sweeps that value's columns; every other anchor sweeps its class
    columns.  Fires the same ``index.*`` events as the row path, so
    EXPLAIN ANALYZE counters read identically under the ablation switch.
    """
    uid = atom.equality_value("id")
    if uid is not None:
        return _point_scan(csr, int(uid), atom, scope)

    current = scope.is_current
    value_columns = _value_columns(csr, atom, class_names)
    if value_columns is None:
        store._event("index.class.hit" if current else "index.temporal.class_hit")
        columns = csr.columns_of(class_names)
    else:
        store._event("index.field.hit" if current else "index.temporal.field_hit")
        columns = value_columns
    # Class columns are already restricted to the atom's concrete class
    # subtree, so a predicate-free atom matches every record they hold: the
    # batch can skip the per-record ``atom.matches`` call entirely.
    trivial = value_columns is None and not atom.predicates

    if current:
        return _current_scan(columns, atom, trivial)

    a, b = _window(scope)
    rows: list[tuple[int, float, ElementRecord]] = []
    for cols in columns:
        cols.visible_rows(a, b, rows)
    if trivial:
        # Newest visible version per uid, one dict pass — no sort needed
        # (starts never repeat within a chain, so "max start" is exact).
        best: dict[int, tuple[float, ElementRecord]] = {}
        for uid, start, record in rows:
            prev = best.get(uid)
            if prev is None or start > prev[0]:
                best[uid] = (start, record)
        store._event("index.temporal.candidates", len(best))
        return [best[uid][1] for uid in sorted(best)]
    candidates = sorted({row[0] for row in rows})
    store._event("index.temporal.candidates", len(candidates))
    return _chain_representatives(csr, candidates, atom, a, b)


def batch_class_count(
    csr: "CsrSnapshot", class_names: Sequence[str], scope: TimeScope
) -> int:
    """Elements of *class_names* with a version visible under a historical
    *scope*.

    Under ``AT t`` an element has at most one visible version (its chain's
    periods are disjoint), so the count is an open-column bisect plus the
    closed-column tail; a range counts distinct uids.
    """
    a, b = _window(scope)
    instant = scope.kind == TimeScope.AT
    total = 0
    uids: set[int] = set()
    for cols in csr.columns_of(class_names):
        opened = bisect_left(cols.open_starts, b)
        starts, closed_uids = cols.closed_starts, cols.closed_uids
        tail = [
            closed_uids[i]
            for i in range(bisect_right(cols.closed_ends, a), len(starts))
            if starts[i] < b
        ]
        if instant:
            total += opened + len(tail)
        else:
            uids.update(cols.open_uids[:opened])
            uids.update(tail)
    return total if instant else len(uids)


def _segment_ranges(
    segments: dict[str, tuple[int, int]], class_names: Sequence[str] | None
) -> list[tuple[int, int]]:
    if class_names is None:
        return list(segments.values())
    ranges = []
    for name in class_names:
        rng = segments.get(name)
        if rng is not None:
            ranges.append(rng)
    return ranges


def batch_expand_many(
    csr: "CsrSnapshot",
    forward: bool,
    node_uids: Sequence[int],
    scope: TimeScope,
    class_names: Sequence[str] | None,
) -> dict[int, list[EdgeRecord]]:
    """Wave-at-a-time frontier expansion over the adjacency CSR.

    The unfiltered case never touches the segment dicts: a node's whole
    adjacency is one precomputed ``[lo, hi)`` range, and current-scope
    waves slice the materialized edge-record column directly.
    """
    if forward:
        segments = csr.out_segments
        flat = csr.out_edge_dense
        edge_current = csr.out_edge_current
        node_lo, node_hi = csr.out_node_lo, csr.out_node_hi
    else:
        segments = csr.in_segments
        flat = csr.in_edge_dense
        edge_current = csr.in_edge_current
        node_lo, node_hi = csr.in_node_lo, csr.in_node_hi
    dense_get = csr.dense_of.get
    current = scope.is_current
    result: dict[int, list[EdgeRecord]] = {}

    if current and class_names is None:
        for uid in node_uids:
            dense = dense_get(uid)
            result[uid] = (
                []
                if dense is None
                else [
                    r  # type: ignore[misc]
                    for r in edge_current[node_lo[dense] : node_hi[dense]]
                    if r is not None
                ]
            )
        return result

    a, b = (0.0, 0.0) if current else _window(scope)
    chain_lo = csr.chain_lo
    chain_hi = csr.chain_hi
    chain_starts = csr.chain_starts
    chain_ends = csr.chain_ends
    chain_records = csr.chain_records
    for uid in node_uids:
        records: list[EdgeRecord] = []
        dense = dense_get(uid)
        if dense is not None:
            if class_names is None:
                ranges: Sequence[tuple[int, int]] = ((node_lo[dense], node_hi[dense]),)
            else:
                segs = segments[dense]
                ranges = _segment_ranges(segs, class_names) if segs else ()
            for lo, hi in ranges:
                if current:
                    for i in range(lo, hi):
                        record = edge_current[i]
                        if record is not None:
                            records.append(record)  # type: ignore[arg-type]
                else:
                    for i in range(lo, hi):
                        # latest_visible_dense, inlined for the hot loop
                        d = flat[i]
                        clo = chain_lo[d]
                        chi = bisect_left(chain_starts, b, clo, chain_hi[d])
                        if chi > clo and chain_ends[chi - 1] > a:
                            records.append(chain_records[chi - 1])  # type: ignore[arg-type]
        result[uid] = records
    return result


def batch_get_many(
    csr: "CsrSnapshot", uids: Sequence[int], scope: TimeScope
) -> dict[int, ElementRecord]:
    """Batched ``get_element``: latest visible version per uid."""
    result: dict[int, ElementRecord] = {}
    dense_get = csr.dense_of.get
    if scope.is_current:
        current_records = csr.current_records
        for uid in uids:
            dense = dense_get(uid)
            if dense is not None:
                record = current_records[dense]
                if record is not None:
                    result[uid] = record
        return result
    a, b = _window(scope)
    chain_lo = csr.chain_lo
    chain_hi = csr.chain_hi
    chain_starts = csr.chain_starts
    chain_ends = csr.chain_ends
    chain_records = csr.chain_records
    for uid in uids:
        dense = dense_get(uid)
        if dense is None:
            continue
        lo = chain_lo[dense]
        hi = bisect_left(chain_starts, b, lo, chain_hi[dense])
        if hi > lo and chain_ends[hi - 1] > a:
            result[uid] = chain_records[hi - 1]
    return result
