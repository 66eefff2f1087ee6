"""Properties of the columnar (CSR) layer.

The CSR is the foundation the batch operators stand on, so its
invariants are tested directly: the interning table is a bijection, the
chain columns are bisectable (starts and ends ascending per chain), the
adjacency CSR reproduces ``AdjacencyIndex.edges`` ordering exactly, and
the store keeps one CSR valid across writes — every write patches the
same object in place, and after any write it answers exactly like a
from-scratch build.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.stats.metrics import MetricsRegistry
from repro.storage.base import TimeScope
from repro.storage.memgraph.csr import CsrSnapshot, build_csr
from repro.storage.memgraph.store import MemGraphStore
from repro.temporal.clock import TransactionClock
from tests.storage.test_backend_equivalence import SCHEMA, T0, _ops, apply_ops

NOW = TimeScope.current()
_choices = st.lists(st.integers(min_value=0, max_value=997), min_size=60, max_size=60)


def churned_store(ops, choices) -> MemGraphStore:
    store = MemGraphStore(SCHEMA, clock=TransactionClock(start=T0))
    apply_ops(store, ops, choices)
    return store


def simple_store() -> MemGraphStore:
    store = MemGraphStore(SCHEMA, clock=TransactionClock(start=T0))
    a = store.insert_node("Box", {"status": "up"})
    b = store.insert_node("BigBox", {"status": "up"})
    c = store.insert_node("Box", {"status": "down"})
    store.insert_edge("Link", a, b, {"weight": 1})
    store.clock.advance(10)
    store.insert_edge("FastLink", a, c, {"weight": 2})
    store.insert_edge("Link", a, c, {"weight": 3})
    store.clock.advance(10)
    store.update_element(a, {"status": "warm"})
    store.delete_element(c)
    return store


def test_interning_table_is_a_bijection():
    store = simple_store()
    csr = build_csr(store)
    uids = list(csr.uids)
    assert uids == sorted(store._class_of)
    assert [csr.dense_of[uid] for uid in uids] == list(range(len(uids)))
    for dense, uid in enumerate(uids):
        name = csr.class_names[csr.element_class_ids[dense]]
        assert name == store._class_of[uid].name
    # Every schema class is interned, node and edge labels alike.
    assert {cls.name for cls in store.schema.classes()} <= set(csr.class_names)


def assert_bisectable(csr) -> None:
    for dense in range(len(csr.uids)):
        lo, hi = csr.chain_lo[dense], csr.chain_hi[dense]
        starts = list(csr.chain_starts[lo:hi])
        ends = list(csr.chain_ends[lo:hi])
        assert starts == sorted(starts)
        assert ends == sorted(ends)
        # Versions of a chain never overlap: each closes before the next opens.
        for i in range(1, len(starts)):
            assert ends[i - 1] <= starts[i]


def test_chain_columns_are_bisectable():
    store = simple_store()
    csr = build_csr(store)
    # A fresh build lays the chains out back to back, with no dead slots.
    assert csr.chain_lo[0] == 0
    assert csr.chain_hi[-1] == len(csr.chain_records)
    assert list(csr.chain_lo[1:]) == list(csr.chain_hi[:-1])
    assert csr.dead == 0
    assert_bisectable(csr)


def test_adjacency_csr_reproduces_index_ordering():
    store = simple_store()
    csr = build_csr(store)
    filters = [None, ["Link"], ["FastLink"], ["Link", "FastLink"], ["FastLink", "Link"]]
    for adjacency, segments, flat in (
        (store._out, csr.out_segments, csr.out_edge_dense),
        (store._in, csr.in_segments, csr.in_edge_dense),
    ):
        for uid in store.known_uids():
            dense = csr.dense_of[uid]
            for names in filters:
                expected = adjacency.edges(uid, names)
                segs = segments[dense] or {}
                ranges = (
                    list(segs.values())
                    if names is None
                    else [segs[n] for n in names if n in segs]
                )
                got = [
                    csr.uids[flat[i]] for lo, hi in ranges for i in range(lo, hi)
                ]
                assert got == expected, (uid, names)


def test_writes_patch_the_same_csr_without_building():
    metrics = MetricsRegistry()
    store = simple_store()
    store.set_metrics(metrics)
    built = store._csr_snapshot()
    assert metrics.event_count("executor.batch.csr_build") == 1
    assert store._csr_snapshot() is built
    a, b = store.known_uids()[:2]
    store.clock.advance(10)
    store.update_element(a, {"status": "hot"})
    edge = store.insert_edge("Link", b, a, {"weight": 4})
    store.delete_element(edge)
    store.insert_node("Box", {"status": "new"})
    assert store._csr is built
    assert store._csr_snapshot() is built
    assert metrics.event_count("executor.batch.csr_build") == 1
    assert metrics.event_count("executor.batch.csr_patch") == 4
    assert built.latest_visible(a, store.clock.now(), float("inf")).fields["status"] == "hot"
    # A bulk load drops the CSR; the next batch read builds a fresh one.
    with store.bulk():
        assert store._csr is None
        store.insert_node("Box", {"status": "bulk"})
    assert store._csr is None
    assert store._csr_snapshot() is not built
    assert metrics.event_count("executor.batch.csr_build") == 2


def test_dead_slots_trigger_compaction():
    metrics = MetricsRegistry()
    store = simple_store()
    store.set_metrics(metrics)
    store._csr_snapshot()
    a, c = store.known_uids()[0], store.known_uids()[2]
    for i in range(40):
        # Alternate two elements so each update moves a chain to the tail.
        store.clock.advance(1)
        store.update_element(a if i % 2 else c - 1, {"status": f"s{i}"})
        csr = store._csr
        assert csr.dead <= csr.live()
    assert metrics.event_count("executor.batch.csr_compact") >= 1
    assert metrics.event_count("executor.batch.csr_build") == 1
    assert_same_answers(store._csr, build_csr(store), store)


@settings(max_examples=30, deadline=None)
@given(_ops, _choices)
def test_lazy_rebuild_equals_fresh_build(ops, choices):
    """After arbitrary churn, the CSR built on the first read answers
    exactly like a from-scratch build (and like the row path) at every
    probe time."""
    store = churned_store(ops, choices)
    cached = store._csr_snapshot()
    fresh = build_csr(store)
    assert cached.describe() == fresh.describe()
    final = store.clock.now()
    probes = [T0, (T0 + final) / 2, final]
    for uid in store.known_uids():
        for t in probes:
            scope = TimeScope.at(t)
            window = scope.window()
            a, b = window.start, window.end
            assert cached.latest_visible(uid, a, b) == fresh.latest_visible(uid, a, b)
            assert cached.latest_visible(uid, a, b) == store.get_element(uid, scope)


# ----------------------------------------------------------------------
# patched-vs-fresh property
# ----------------------------------------------------------------------

#: ``_ops`` plus edge revivals through ``reinsert``.
_patch_ops = st.lists(
    st.sampled_from([
        ("node", "Box"), ("node", "BigBox"),
        ("edge", "Link"), ("edge", "FastLink"),
        ("update",), ("delete",), ("revive",), ("reinsert",), ("tick",),
    ]),
    min_size=3,
    max_size=30,
)


def write_steps(store, ops, choices):
    """Apply *ops* one at a time, yielding after each one that wrote.

    Without a ``tick`` in between, an update or delete lands at the
    instant its element opened (a same-instant overwrite or drop);
    deleting a node cascades to its current edges; ``revive`` brings a
    node back under its old uid and ``reinsert`` an edge.
    """
    nodes: list[int] = []
    node_class: dict[int, str] = {}
    edges: list[int] = []
    pick = iter(choices)

    def choose(population):
        return population[next(pick) % len(population)] if population else None

    for op in ops:
        kind = op[0]
        if kind == "tick":
            store.clock.advance(10)
            continue
        try:
            if kind == "node":
                nodes.append(store.insert_node(op[1], {"status": "up", "size": len(nodes)}))
                node_class[nodes[-1]] = op[1]
            elif kind == "edge":
                source, target = choose(nodes), choose(nodes)
                if source is None:
                    continue
                edges.append(store.insert_edge(op[1], source, target, {"weight": len(edges)}))
            elif kind == "update":
                uid = choose(nodes + edges)
                if uid is None:
                    continue
                store.update_element(uid, {"status": f"v{next(pick)}"})
            elif kind == "delete":
                uid = choose(nodes + edges)
                if uid is None:
                    continue
                store.delete_element(uid)
            elif kind == "revive":
                uid = choose([n for n in nodes if store.get_element(n, NOW) is None])
                if uid is None:
                    continue
                store.insert_node(node_class[uid], {"status": "back"}, uid=uid)
            else:
                uid = choose([e for e in edges if store.get_element(e, NOW) is None])
                if uid is None:
                    continue
                store.reinsert(uid, {"weight": 99})
        except Exception:
            continue
        yield op


def probe_windows(store) -> list[tuple[float, float]]:
    """Every version boundary, the gaps between them, and ranges across them."""
    times = {T0 - 1.0, store.clock.now() + 1.0}
    for uid in store.known_uids():
        for version in store.versions(uid, TimeScope.between(0.0, float("inf")).window()):
            times.add(version.period.start)
            if version.period.end != float("inf"):
                times.add(version.period.end)
    times = sorted(times)
    points = times + [(x + y) / 2 for x, y in zip(times, times[1:])]
    windows = [(w.start, w.end) for w in (TimeScope.at(t).window() for t in points)]
    windows += [(x, y) for i, x in enumerate(times) for y in times[i + 1:]]
    windows.append((-float("inf"), float("inf")))
    return windows


def adjacency_of(csr: CsrSnapshot, forward: bool, uid: int, names):
    segments, flat, current = (
        (csr.out_segments, csr.out_edge_dense, csr.out_edge_current)
        if forward
        else (csr.in_segments, csr.in_edge_dense, csr.in_edge_current)
    )
    segs = segments[csr.dense_of[uid]] or {}
    ranges = list(segs.values()) if names is None else [segs[n] for n in names if n in segs]
    return [(csr.uids[flat[i]], current[i]) for lo, hi in ranges for i in range(lo, hi)]


def whole_run(csr: CsrSnapshot, forward: bool, uid: int):
    flat, current, node_lo, node_hi = (
        (csr.out_edge_dense, csr.out_edge_current, csr.out_node_lo, csr.out_node_hi)
        if forward
        else (csr.in_edge_dense, csr.in_edge_current, csr.in_node_lo, csr.in_node_hi)
    )
    dense = csr.dense_of[uid]
    return [(csr.uids[flat[i]], current[i]) for i in range(node_lo[dense], node_hi[dense])]


FILTERS = (None, ["Link"], ["FastLink"], ["Link", "FastLink"], ["FastLink", "Link"])


def assert_same_answers(patched: CsrSnapshot, fresh: CsrSnapshot, store) -> None:
    assert patched.describe() == fresh.describe()
    uids = store.known_uids()
    assert sorted(patched.uids) == uids
    windows = probe_windows(store)
    for uid in uids:
        pd, fd = patched.dense_of[uid], fresh.dense_of[uid]
        assert patched.current_records[pd] == fresh.current_records[fd]
        assert (
            patched.class_names[patched.element_class_ids[pd]]
            == fresh.class_names[fresh.element_class_ids[fd]]
        )
        for a, b in windows:
            assert patched.latest_visible(uid, a, b) == fresh.latest_visible(uid, a, b)
            plo, phi = patched.chain_run(pd, a, b)
            flo, fhi = fresh.chain_run(fd, a, b)
            assert patched.chain_records[plo:phi] == fresh.chain_records[flo:fhi]
        for forward in (True, False):
            for names in FILTERS:
                assert adjacency_of(patched, forward, uid, names) == adjacency_of(
                    fresh, forward, uid, names
                ), (uid, forward, names)
            run = whole_run(patched, forward, uid)
            assert run == adjacency_of(patched, forward, uid, None)
            assert all(record == patched.current_of(e) for e, record in run)
    for cls in store.schema.classes():
        p, f = patched.class_columns.get(cls.name), fresh.class_columns.get(cls.name)
        p_current = (p.current_uids, p.current_records) if p else ([], [])
        f_current = (f.current_uids, f.current_records) if f else ([], [])
        assert p_current == f_current, cls.name
        for a, b in windows:
            p_rows: list = []
            f_rows: list = []
            if p:
                p.visible_rows(a, b, p_rows)
            if f:
                f.visible_rows(a, b, f_rows)
            assert sorted(p_rows, key=_row_key) == sorted(f_rows, key=_row_key), cls.name


def _row_key(row):
    return row[0], row[1]


def test_patch_grows_a_middle_class_segment():
    """A new edge of a node's first edge class lands inside its run, so the
    later class segments shift; a second node's edge then moves the run
    off the column tail."""
    store = MemGraphStore(SCHEMA, clock=TransactionClock(start=T0))
    a = store.insert_node("Box", {"status": "a"})
    b = store.insert_node("Box", {"status": "b"})
    store._csr_snapshot()
    for cls, source, target in (
        ("Link", a, b), ("FastLink", a, b), ("Link", a, a), ("Link", b, a), ("FastLink", a, a),
    ):
        store.insert_edge(cls, source, target, {"weight": 1})
        assert_same_answers(store._csr, build_csr(store), store)
    assert store._csr.dead > 0


@settings(max_examples=40, deadline=None)
@given(_patch_ops, _choices)
def test_patched_csr_equals_fresh_build_after_every_write(ops, choices):
    """Build the CSR first, then write: after every write the patched CSR
    and a from-scratch build answer identically — visibility and chain
    runs at every probe window, class-column scans, and adjacency order
    under every class filter."""
    metrics = MetricsRegistry()
    store = MemGraphStore(SCHEMA, clock=TransactionClock(start=T0), metrics=metrics)
    seed = store.insert_node("Box", {"status": "seed"})
    store.insert_edge("Link", seed, seed, {"weight": 0})
    store._csr_snapshot()
    for _ in write_steps(store, ops, choices):
        patched = store._csr
        assert patched is not None
        assert patched.dead <= patched.live()
        assert_bisectable(patched)
        assert_same_answers(patched, build_csr(store), store)
    assert metrics.event_count("executor.batch.csr_build") == 1
