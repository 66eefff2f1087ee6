"""Batch-vs-row differential: the vectorized path must be invisible.

The batch engine (CSR snapshots + column operators) is an optimization,
never a semantic: with ``batch_enabled`` flipped, every read surface —
scans, point reads, batched point reads, frontier expansion, full query
results — must come back byte-identical, in the same order, with the
same record objects' values.  That contract is checked here under random
churn across the backend matrix, through pinned snapshots while a writer
churns underneath, and on a replica recovered from the durability log.

The CSR is built on the first batch read and then patched in place by
every write, so the batch legs below warm with one read and the
interleaved cases keep writing after the CSR exists.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings, strategies as st

from repro.core.database import NepalDB
from repro.plan.planner import PlannerOptions
from repro.rpe.parser import parse_rpe
from repro.schema.builtin import build_network_schema
from repro.storage.base import TimeScope
from repro.storage.durable import recover
from repro.storage.memgraph.store import MemGraphStore
from repro.temporal.clock import TransactionClock
from tests.conftest import SmallInventory
from tests.storage.test_backend_equivalence import (
    BACKEND_MATRIX,
    T0,
    _norm_value,
    _ops,
    apply_ops,
    matrix_stores,
    snapshot_of,
)
from tests.storage.test_csr import _patch_ops, write_steps

_choices = st.lists(st.integers(min_value=0, max_value=997), min_size=60, max_size=60)


def engine_of(store):
    """The innermost store carrying the batch engine flag, or None."""
    target = store
    while target is not None:
        if "batch_enabled" in vars(target):
            return target
        target = getattr(target, "_inner", None)
    return None


def warm(store, scope) -> None:
    """One batch read, which builds the CSR."""
    bound = parse_rpe(f"{store.schema.classes()[0].name}()").bind(store.schema)
    store.scan_atom(bound, scope)


def read_surface(store, scope, scan_names, filter_name):
    """Every read surface the executor uses, order-sensitively."""
    schema = store.schema
    scans = []
    for name in scan_names:
        bound = parse_rpe(f"{name}()").bind(schema)
        scans.append((name, store.scan_atom(bound, scope)))
    uids = store.known_uids()
    filters = [schema.resolve(filter_name)]
    per_node = [
        (
            uid,
            store.get_element(uid, scope),
            store.out_edges(uid, scope),
            store.in_edges(uid, scope, filters),
        )
        for uid in uids
    ]
    return (
        scans,
        per_node,
        store.get_many(uids, scope),
        store.out_edges_many(uids, scope),
        store.in_edges_many(uids, scope, filters),
    )


def ordered_rows(result):
    """An order-*sensitive* digest of a query result."""
    return [
        (
            tuple(_norm_value(v) for v in row.values),
            tuple(sorted((name, p.key()) for name, p in row.bindings.items())),
        )
        for row in result.rows
    ]


EQUIV_SCANS = ("Box", "BigBox", "Link", "FastLink")
NETWORK_SCANS = ("VM", "Host", "Vertical")


@settings(max_examples=20, deadline=None)
@given(_ops, _choices)
def test_batch_matches_row_across_matrix_under_churn(ops, choices):
    """Flip the engine flag on every matrix config after random writes:
    batch and row legs must be identical at every scope, and every config
    (including the row-only relational ones) must still agree with the
    batch-warmed memory reference."""
    stores = matrix_stores()
    for store in stores.values():
        apply_ops(store, ops, choices)
    reference = stores[BACKEND_MATRIX[0]]
    final = reference.clock.now()
    scopes = [
        TimeScope.current(),
        TimeScope.at(T0),
        TimeScope.at((T0 + final) / 2),
        TimeScope.between(T0, final + 1),
    ]
    for scope in scopes:
        for config, store in stores.items():
            engine = engine_of(store)
            if engine is None:
                continue
            engine.batch_enabled = True
            warm(store, scope)
            batch_leg = read_surface(store, scope, EQUIV_SCANS, "FastLink")
            engine.batch_enabled = False
            row_leg = read_surface(store, scope, EQUIV_SCANS, "FastLink")
            engine.batch_enabled = True
            assert batch_leg == row_leg, (config, scope)
        expected = snapshot_of(reference, scope)
        for config, store in stores.items():
            assert snapshot_of(store, scope) == expected, (config, scope)


@settings(max_examples=20, deadline=None)
@given(_patch_ops, _choices)
def test_batch_matches_row_as_writes_patch_the_csr(ops, choices):
    """Build the CSR first, then interleave writes with batch reads: after
    every write the patched CSR must serve exactly what the row path
    does, at every scope, without ever being rebuilt."""
    stores = {
        config: store
        for config, store in matrix_stores().items()
        if engine_of(store) is not None
    }
    for config, store in stores.items():
        engine = engine_of(store)
        warm(store, TimeScope.current())
        built = engine._csr
        assert built is not None
        for _ in write_steps(store, ops, choices):
            final = store.clock.now()
            for scope in (
                TimeScope.current(),
                TimeScope.at(T0),
                TimeScope.at(final),
                TimeScope.between(T0, final + 1),
            ):
                batch_leg = read_surface(store, scope, EQUIV_SCANS, "FastLink")
                engine.batch_enabled = False
                row_leg = read_surface(store, scope, EQUIV_SCANS, "FastLink")
                engine.batch_enabled = True
                assert batch_leg == row_leg, (config, scope)
            assert engine._csr is not None


PIN_QUERY = (
    "Select source(P).name, target(P).name "
    "From PATHS P Where P MATCHES VFC()->VM()->Host()"
)


def test_pinned_snapshot_batch_reads_ignore_later_writes():
    """Snapshots pinned before churn must serve identical (pre-churn)
    answers from the batch and row engines, while live reads move on."""
    schema = build_network_schema()
    dbs = {}
    invs = {}
    for leg, enabled in (("batch", True), ("row", False)):
        db = NepalDB(
            schema=schema,
            clock=TransactionClock(start=T0),
            planner_options=PlannerOptions(batch_enabled=enabled),
        )
        invs[leg] = SmallInventory(db.store)
        dbs[leg] = db
    assert engine_of(dbs["batch"].store).batch_enabled
    assert not engine_of(dbs["row"].store).batch_enabled

    # The first run builds the batch leg's CSR before pinning.
    before = {leg: ordered_rows(db.query(PIN_QUERY)) for leg, db in dbs.items()}
    assert before["batch"] == before["row"]
    assert before["batch"]  # the fixed topology does produce pathways

    snaps = {leg: db.snapshot() for leg, db in dbs.items()}

    # Churn both databases identically underneath the open snapshots.
    for leg, db in dbs.items():
        inv = invs[leg]
        db.store.clock.advance(10)
        db.store.update_element(inv.vm1, {"status": "Red"})
        db.store.delete_element(inv.e_vfc2_vm2)
        db.store.insert_node("Host", {"name": "host-3", "cpu_cores": 8})
        db.store.clock.advance(10)

    try:
        pinned = {leg: ordered_rows(snap.query(PIN_QUERY)) for leg, snap in snaps.items()}
        assert pinned["batch"] == pinned["row"]
        assert pinned["batch"] == before["batch"]
        # Direct pinned point reads agree too, record for record.
        uids = dbs["batch"].store.known_uids()
        assert uids == dbs["row"].store.known_uids()
        for scope in (TimeScope.current(), TimeScope.at(T0)):
            got = {
                leg: snap.store.get_many(uids, scope) for leg, snap in snaps.items()
            }
            assert got["batch"] == got["row"]
        # The live stores really did diverge from the pinned view.
        live = {leg: ordered_rows(db.query(PIN_QUERY)) for leg, db in dbs.items()}
        assert live["batch"] == live["row"]
        assert live["batch"] != before["batch"]
    finally:
        for snap in snaps.values():
            snap.close()


def churn_round(db, inv, placement: dict[int, int], i: int) -> None:
    """One deterministic write round: a status flip and a VM migration
    (delete its OnServer edge, insert one to the other host)."""
    vm = (inv.vm1, inv.vm2)[i % 2]
    db.store.clock.advance(1)
    db.update(vm, {"status": ("Red", "Green")[i % 2]})
    host = inv.host1 if placement[vm] == inv.host2 else inv.host2
    db.delete(placement.pop(("edge", vm)))
    placement[("edge", vm)] = db.insert_edge("OnServer", vm, host)
    placement[vm] = host


CHURN_ROUNDS = 40


def test_pinned_snapshots_hold_while_a_writer_churns():
    """A writer thread churns the batch database while two reader threads
    query pinned snapshots (and the live store): every pinned answer stays
    the pre-churn one, no write rebuilds the CSR, and after the churn the
    live answers match the row engine given the same writes."""
    schema = build_network_schema()
    dbs, invs, placements = {}, {}, {}
    for leg, enabled in (("batch", True), ("row", False)):
        db = NepalDB(
            schema=schema,
            clock=TransactionClock(start=T0),
            planner_options=PlannerOptions(batch_enabled=enabled),
        )
        inv = invs[leg] = SmallInventory(db.store)
        placements[leg] = {
            inv.vm1: inv.host1, ("edge", inv.vm1): inv.e_vm1_host1,
            inv.vm2: inv.host2, ("edge", inv.vm2): inv.e_vm2_host2,
        }
        dbs[leg] = db
    before = {leg: ordered_rows(db.query(PIN_QUERY)) for leg, db in dbs.items()}
    assert before["batch"] == before["row"]
    builds = dbs["batch"].metrics.event_count("executor.batch.csr_build")
    assert builds == 1

    # Pins for the two readers, and one on the row leg so both legs'
    # writes are stamped past an open pin alike.
    reader_snaps = [dbs["batch"].snapshot() for _ in range(2)]
    row_snap = dbs["row"].snapshot()
    done = threading.Event()
    errors: list[object] = []
    reads = [0, 0]

    def writer() -> None:
        try:
            for i in range(CHURN_ROUNDS):
                churn_round(dbs["batch"], invs["batch"], placements["batch"], i)
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)
        finally:
            done.set()

    def reader(k: int) -> None:
        try:
            while not done.is_set() or reads[k] < 3:
                got = ordered_rows(reader_snaps[k].query(PIN_QUERY))
                if got != before["batch"]:
                    errors.append((k, got))
                dbs["batch"].query(PIN_QUERY)
                reads[k] += 1
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(k,)) for k in range(2)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        for i in range(CHURN_ROUNDS):
            churn_round(dbs["row"], invs["row"], placements["row"], i)
        assert ordered_rows(row_snap.query(PIN_QUERY)) == before["row"]
        live = {leg: ordered_rows(db.query(PIN_QUERY)) for leg, db in dbs.items()}
        assert live["batch"] == live["row"]
        assert dbs["batch"].metrics.event_count("executor.batch.csr_build") == builds
        assert dbs["batch"].metrics.event_count("executor.batch.csr_patch") > 0
    finally:
        for snap in reader_snaps + [row_snap]:
            snap.close()


def test_recovered_replica_batch_matches_row(tmp_path):
    """A replica rebuilt from the durability log answers identically on
    both engines, and identically to the primary it replicates."""
    schema = build_network_schema()
    db = NepalDB(
        schema=schema,
        clock=TransactionClock(start=T0),
        data_dir=str(tmp_path / "data"),
    )
    inv = SmallInventory(db.store)
    db.store.clock.advance(5)
    db.store.update_element(inv.vm2, {"status": "Yellow"})
    db.store.delete_element(inv.e_fw_vfc2)

    scope = TimeScope.current()
    warm(db.store, scope)
    primary = read_surface(db.store, scope, NETWORK_SCANS, "OnServer")
    db.close()

    replica = MemGraphStore(schema, clock=TransactionClock(start=T0))
    recover(tmp_path / "data", replica)
    engine = engine_of(replica)
    engine.batch_enabled = True
    warm(replica, scope)
    batch_leg = read_surface(replica, scope, NETWORK_SCANS, "OnServer")
    engine.batch_enabled = False
    row_leg = read_surface(replica, scope, NETWORK_SCANS, "OnServer")
    assert batch_leg == row_leg
    assert batch_leg == primary


def test_planner_option_reaches_the_engine_through_wrappers(tmp_path):
    """PlannerOptions(batch_enabled=False) lands on the innermost engine,
    never shadowed onto a delegating wrapper."""
    schema = build_network_schema()
    disabled = NepalDB(
        schema=schema,
        clock=TransactionClock(start=T0),
        data_dir=str(tmp_path / "data"),
        planner_options=PlannerOptions(batch_enabled=False),
    )
    engine = engine_of(disabled.store)
    assert engine is not disabled.store  # there is a DurableStore in between
    assert engine.batch_enabled is False
    assert "batch_enabled" not in vars(disabled.store)
    disabled.close()

    default = NepalDB(schema=schema, clock=TransactionClock(start=T0))
    assert engine_of(default.store).batch_enabled is True
