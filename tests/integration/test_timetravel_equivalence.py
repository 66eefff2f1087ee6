"""Time-travel differential suite over the paper-query corpus.

The churned virtualized-service topology is loaded into every backend
configuration (memory served from its CSR columns, relational from SQL,
each wrapped in a zero-fault chaos store), then the corpus runs under
historical scopes — timeslices before, during and after the churn window
plus a spanning range — and every configuration must produce identical
normalized rows.  The relational backend shares no index code with the
in-memory one, so agreement here is an end-to-end oracle for the columnar
hot path; the in-memory database additionally answers against its own
row path (``batch_enabled`` off, whose historical anchors are the
brute-force scan) and after a recovery round-trip through WAL +
checkpoint.
"""

from __future__ import annotations

import pytest

from repro.core.database import NepalDB
from repro.inventory.churn import ChurnParams, ChurnSimulator
from repro.inventory.virtualized import TopologyParams, VirtualizedServiceTopology
from repro.temporal.clock import TransactionClock
from tests.conftest import BACKEND_MATRIX, build_matrix_db
from tests.storage.test_backend_equivalence import normalized_rows

T0 = 1_000.0

PARAMS = TopologyParams(
    services=2, vms=30, virtual_networks=8, virtual_routers=3,
    racks=2, hosts_per_rack=3, spine_switches=2, routers=2,
    seed=20180610,
)

CHURN = ChurnParams(days=10, growth_ratio=0.15, seed=11)


def load_and_churn(db: NepalDB) -> None:
    handles = VirtualizedServiceTopology(PARAMS).apply(db.store)
    migratable = {vm: handles.hosts for vm in handles.vms}
    ChurnSimulator(db.store, CHURN).run(
        handles.all_nodes(), handles.all_edges(), migratable
    )
    db.executor().invalidate_statistics()


def corpus(t_mid: float, t_end: float) -> tuple[str, ...]:
    """Historical variants of the paper queries (timeslice + range + join)."""
    return (
        f"AT {t_mid} Select source(P).name, target(P).name "
        f"From PATHS P Where P MATCHES VNF()->VFC()->VM()->Host()",
        f"AT {t_mid} Retrieve P From PATHS P "
        f"Where P MATCHES VNF()->[Vertical()]{{1,6}}->Host()",
        f"AT {T0 - 1} Select source(P).name From PATHS P Where P MATCHES VM()",
        f"AT {t_mid} Select source(V).name From PATHS V "
        f"Where V MATCHES VM(status='Red')",
        f"AT {t_mid} : {t_end} Select source(P).name, target(P).name "
        f"From PATHS P Where P MATCHES VM()->OnServer()->Host()",
        # Hash-joinable equi-join under a timeslice.
        f"AT {t_mid} Retrieve P, Q From PATHS P, PATHS Q "
        f"Where P MATCHES VFC()->OnVM()->VM() "
        f"And Q MATCHES VM()->OnServer()->Host() "
        f"And target(P) = source(Q)",
    )


@pytest.fixture(scope="module")
def churned_matrix():
    dbs = {}
    for config in BACKEND_MATRIX:
        db = build_matrix_db(config, clock=TransactionClock(start=T0))
        load_and_churn(db)
        dbs[config] = db
    reference = dbs[BACKEND_MATRIX[0]]
    t_end = reference.store.clock.now()
    t_mid = (T0 + t_end) / 2
    return dbs, corpus(t_mid, t_end)


def test_timetravel_corpus_agrees_across_matrix(churned_matrix):
    dbs, queries = churned_matrix
    for query in queries:
        expected = normalized_rows(dbs[BACKEND_MATRIX[0]].query(query))
        for config in BACKEND_MATRIX[1:]:
            actual = normalized_rows(dbs[config].query(query))
            assert actual == expected, (config, query)


def test_indexed_memory_backend_agrees_with_its_own_ablation(churned_matrix):
    dbs, queries = churned_matrix
    db = dbs["memory"]
    store = db.store
    for query in queries:
        store.batch_enabled = True
        indexed = normalized_rows(db.query(query))
        store.batch_enabled = False
        try:
            brute = normalized_rows(db.query(query))
        finally:
            store.batch_enabled = True
        assert indexed == brute, query


def test_hot_path_events_surface_in_stats(churned_matrix):
    dbs, queries = churned_matrix
    db = dbs["memory"]
    for query in queries:
        db.query(query)
    events = db.stats()["events"]
    assert events["index.temporal.class_hit"] >= 1
    assert events["index.temporal.candidates"] >= 1
    assert events["executor.join.hash"] >= 1
    assert events["executor.join.nested_loop"] >= 1
    assert events["index.expand.batches"] >= 1
    # The same snapshot is reachable through the legacy cache_stats name.
    assert db.cache_stats()["events"] == events


def test_recovered_store_answers_history_through_rebuilt_indexes(
    churned_matrix, tmp_path
):
    dbs, queries = churned_matrix
    reference = dbs["memory"]

    data_dir = tmp_path / "data"
    durable = NepalDB(clock=TransactionClock(start=T0), data_dir=str(data_dir))
    handles = VirtualizedServiceTopology(PARAMS).apply(durable.store)
    migratable = {vm: handles.hosts for vm in handles.vms}
    simulator = ChurnSimulator(durable.store, CHURN)
    simulator.run(handles.all_nodes(), handles.all_edges(), migratable)
    durable.checkpoint()  # half the story from the snapshot...
    more = ChurnSimulator(durable.store, ChurnParams(days=3, seed=12))
    more.run(handles.all_nodes(), handles.all_edges(), migratable)
    post_checkpoint_end = durable.store.clock.now()
    durable.close()

    recovered = NepalDB(clock=TransactionClock(start=T0), data_dir=str(data_dir))
    try:
        inner = recovered.store.inner
        for query in queries:
            expected = normalized_rows(reference.query(query))
            assert normalized_rows(recovered.query(query)) == expected, query
            inner.batch_enabled = False
            brute = normalized_rows(recovered.query(query))
            inner.batch_enabled = True
            assert normalized_rows(recovered.query(query)) == brute, query
        # The CSR built after recovery covers the journal tail past the
        # checkpoint too.
        assert inner._csr is not None
        assert inner._csr.class_columns["Host"].current_uids
        tail = (
            f"AT {post_checkpoint_end - 1} Select source(P).name "
            f"From PATHS P Where P MATCHES VM()"
        )
        inner.batch_enabled = False
        brute_tail = normalized_rows(recovered.query(tail))
        inner.batch_enabled = True
        assert normalized_rows(recovered.query(tail)) == brute_tail
    finally:
        recovered.close()
