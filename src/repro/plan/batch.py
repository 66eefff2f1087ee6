"""Column-batch operators over :class:`~repro.storage.memgraph.csr.CsrSnapshot`.

These replace the row-at-a-time inner loops of the read hot path:

* :func:`batch_scan_atom` — anchor scans that sweep the per-class
  columns of a CSR snapshot.  Current-scope scans walk the uid-sorted
  member columns directly (no set copies, no sort); historical scans run
  the vectorized temporal-visibility filter — two bisects per column
  instead of an ``Interval`` call per version — then pick each element's
  representative with late materialization: records are only touched for
  versions that survived the visibility filter, and predicates only run
  on the newest-first candidates per uid.
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

from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

from repro.model.elements import EdgeRecord, ElementRecord
from repro.storage.base import TimeScope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rpe.ast import Atom
    from repro.storage.memgraph.csr import CsrSnapshot
    from repro.storage.memgraph.store import MemGraphStore


def _window(scope: TimeScope) -> tuple[float, float]:
    window = scope.window()
    return window.start, window.end


def _current_representatives(
    csr: "CsrSnapshot", uids: Sequence[int], atom: "Atom"
) -> list[ElementRecord]:
    """Row-identical representatives for a sorted current-scope uid batch."""
    dense_of = csr.dense_of
    current = csr.current_records
    results: list[ElementRecord] = []
    for uid in uids:
        dense = dense_of.get(uid)
        if dense is None:
            continue
        record = current[dense]
        if record is not None and atom.matches(record):
            results.append(record)
    return results


def _chain_representatives(
    csr: "CsrSnapshot", uids: Sequence[int], atom: "Atom", a: float, b: float
) -> list[ElementRecord]:
    """Representatives for a sorted historical uid batch via chain bisects."""
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


def batch_scan_atom(
    store: "MemGraphStore",
    csr: "CsrSnapshot",
    atom: "Atom",
    class_names: Sequence[str],
    scope: TimeScope,
) -> list[ElementRecord] | None:
    """Columnar ``scan_atom``; ``None`` defers to the row path.

    Fires the same ``index.*`` events as the row path so EXPLAIN ANALYZE
    counters and index-usage tests read identically under the ablation
    switch.  Uid-equality atoms stay on the row path — a single point
    lookup has nothing to batch.
    """
    if atom.equality_value("id") is not None:
        return None

    # Columns are already restricted to the atom's concrete class subtree,
    # so a predicate-free atom matches every record they hold: the batch
    # can skip the per-record ``atom.matches`` call entirely.
    trivial = not atom.predicates

    if scope.is_current:
        candidates = store._indexed_equalities(atom, class_names, scope, temporal=False)
        if candidates is not None:
            store._event("index.field.hit")
            return _current_representatives(csr, sorted(candidates), atom)
        store._event("index.class.hit")
        columns = csr.class_columns
        present = [
            cols
            for cols in (columns.get(name) for name in class_names)
            if cols is not None and cols.current_uids
        ]
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

    a, b = _window(scope)
    candidates = store._indexed_equalities(atom, class_names, scope, temporal=True)
    if candidates is not None:
        store._event("index.temporal.field_hit")
        store._event("index.temporal.candidates", len(candidates))
        return _chain_representatives(csr, sorted(candidates), atom, a, b)

    store._event("index.temporal.class_hit")
    rows: list[tuple[int, float, ElementRecord]] = []
    for name in class_names:
        cols = csr.class_columns.get(name)
        if cols is not None:
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
    store._event("index.temporal.candidates", len({row[0] for row in rows}))
    # Chains never repeat a start, so (uid, start) orders each element's
    # visible versions chronologically; the representative is the newest
    # version in its group that satisfies the atom.
    rows.sort(key=lambda row: (row[0], row[1]))
    results = []
    i = 0
    n = len(rows)
    while i < n:
        uid = rows[i][0]
        j = i
        while j < n and rows[j][0] == uid:
            j += 1
        for k in range(j - 1, i - 1, -1):
            record = rows[k][2]
            if atom.matches(record):
                results.append(record)
                break
        i = j
    return results


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
