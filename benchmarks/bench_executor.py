"""Batch-vs-row executor ablation: the vectorized read hot path.

The batch engine lays the store out as a CSR once, patches it in place on
every write, and serves anchors, temporal filters, frontier expansion and
point reads from flat columns (``repro/plan/batch.py``).  This bench builds the
same ~10k-element churned inventory the time-travel ablation uses, then
times each operator family with ``batch_enabled`` flipped on and off:

* **anchor scan** — current-scope ``scan_atom`` over every VM;
* **temporal filter** — the same scan AT the churn midpoint (bisects over
  sorted interval columns vs an ``Interval`` call per version);
* **2-hop expansion** — ``in_edges_many`` over every host (each fans in
  ~20 ``OnServer`` edges, live and dead) followed by ``get_many`` of
  every edge source (wave-at-a-time CSR walk vs per-element
  adjacency-dict chasing);
* **pathway match** — end-to-end ``find_paths`` of VM()->OnServer()->Host()
  through the planner/executor, where shared NFA stepping dilutes the
  operator-level gains;
* **churn-interleaved** — rounds of one VM status update plus one
  OnServer migration (edge delete + insert), each followed by the same
  pathway match.  ``churn_read_ratio`` is the median read-after-write
  latency over the median read-only latency; with the CSR patched per
  write it stays near 1, where a per-write rebuild would add a full
  O(graph) build to every read after a write.

``csr_build_ms`` is the median of ``BUILD_RUNS`` cold ``build_csr`` calls.

Every timed pair is digest-checked, so the ablation doubles as a
differential test at benchmark scale.  Results land in
``BENCH_executor.json`` (CI artifact + regression-gated baseline).

``NEPAL_EXEC_ELEMENTS`` / ``NEPAL_EXEC_DAYS`` scale the inventory (CI's
bench smoke shrinks both); ``NEPAL_EXEC_REPEAT`` is the best-of count.
At full scale the bench asserts the >= 3x speedup the batch engine was
built for on the temporal-filter and 2-hop cells; at reduced scale it
only asserts the batch path never collapses.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

from repro.core.database import NepalDB
from repro.rpe.parser import parse_rpe
from repro.schema.builtin import build_network_schema
from repro.stats.metrics import MetricsRegistry
from repro.storage.base import TimeScope
from repro.storage.memgraph.csr import build_csr
from repro.storage.memgraph.store import MemGraphStore
from repro.temporal.clock import TransactionClock
from repro.util.text import format_table

T0 = 1_600_000_000.0
DAY = 86_400.0

ELEMENTS = int(os.environ.get("NEPAL_EXEC_ELEMENTS", "10000"))
DAYS = int(os.environ.get("NEPAL_EXEC_DAYS", "12"))
REPEAT = int(os.environ.get("NEPAL_EXEC_REPEAT", "3"))
CHURN_ROUNDS = 30
BUILD_RUNS = 5
JSON_PATH = os.environ.get("NEPAL_EXEC_JSON", "BENCH_executor.json")

#: The >= 3x acceptance targets only bind at the 10k-element scale the
#: ISSUE names; the reduced CI smoke just guards against collapse.
FULL_SCALE = ELEMENTS >= 10_000

CHURN_FRACTION = 0.25
SEED = 20180613


def build_churned_store() -> MemGraphStore:
    """~ELEMENTS initial elements, then DAYS days of VM turnover."""
    rng = random.Random(SEED)
    store = MemGraphStore(
        build_network_schema(),
        clock=TransactionClock(start=T0),
        indexed_fields=("name",),
    )
    n_hosts = max(ELEMENTS // 20, 4)
    n_vms = max((ELEMENTS - n_hosts) // 2, 8)

    hosts: list[int] = []
    with store.bulk():
        for i in range(n_hosts):
            hosts.append(
                store.insert_node("Host", {"name": f"h{i}", "status": "Green"})
            )

    serial = 0
    vm_edge: dict[int, int] = {}

    def spawn_vm() -> None:
        nonlocal serial
        status = rng.choice(("Green", "Amber", "Red"))
        uid = store.insert_node("VM", {"name": f"v{serial}", "status": status})
        vm_edge[uid] = store.insert_edge("OnServer", uid, hosts[serial % n_hosts])
        serial += 1

    with store.bulk():
        for _ in range(n_vms):
            spawn_vm()

    for _ in range(DAYS):
        store.clock.advance(DAY)
        doomed = rng.sample(sorted(vm_edge), int(len(vm_edge) * CHURN_FRACTION))
        with store.bulk():
            for uid in doomed:
                store.delete_element(vm_edge.pop(uid))
                store.delete_element(uid)
            for _ in doomed:
                spawn_vm()
    store.clock.advance(DAY)
    return store


def timed(fn):
    """(best-of-REPEAT seconds, last result)."""
    best = None
    result = None
    for _ in range(REPEAT):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def cold_build_ms(store: MemGraphStore) -> float:
    """Median of BUILD_RUNS from-scratch CSR builds (never a cache hit)."""
    runs = []
    for _ in range(BUILD_RUNS):
        started = time.perf_counter()
        build_csr(store)
        runs.append(time.perf_counter() - started)
    return statistics.median(runs) * 1000


def churn_cell(store: MemGraphStore, match) -> dict[str, float]:
    """Read-only vs read-after-write latency of *match* on the batch path.

    Each round updates one VM's status and migrates another VM (deletes
    its current OnServer edge, inserts one to another host), then runs
    the match twice: the first run is read-after-write, the second
    read-only on the same state, so machine drift hits both alike.  No
    round may rebuild the CSR.
    """
    rng = random.Random(SEED + 1)
    current = TimeScope.current()
    host_atom = parse_rpe("Host()").bind(store.schema)
    edge_atom = parse_rpe("OnServer()").bind(store.schema)
    hosts = [r.uid for r in store.scan_atom(host_atom, current)]
    placement = {e.source_uid: e.uid for e in store.scan_atom(edge_atom, current)}
    vms = sorted(placement)

    def read_ms() -> float:
        started = time.perf_counter()
        match()
        return (time.perf_counter() - started) * 1000

    read_ms()  # plan and caches warm
    metrics = MetricsRegistry()
    store.set_metrics(metrics)
    after_write, read_only = [], []
    try:
        for i in range(CHURN_ROUNDS):
            store.clock.advance(60)
            store.update_element(rng.choice(vms), {"status": ("Green", "Red")[i % 2]})
            vm = rng.choice(vms)
            store.delete_element(placement[vm])
            placement[vm] = store.insert_edge("OnServer", vm, rng.choice(hosts))
            after_write.append(read_ms())
            read_only.append(read_ms())
    finally:
        store.set_metrics(None)
    builds = metrics.event_count("executor.batch.csr_build")
    assert builds == 0, f"{builds} CSR builds during {CHURN_ROUNDS} churn rounds"
    read_only_ms = statistics.median(read_only)
    after_write_ms = statistics.median(after_write)
    return {
        "rounds": CHURN_ROUNDS,
        "read_only_ms": read_only_ms,
        "read_after_write_ms": after_write_ms,
        "csr_patches": metrics.event_count("executor.batch.csr_patch"),
        "csr_compactions": metrics.event_count("executor.batch.csr_compact"),
        "churn_read_ratio": after_write_ms / read_only_ms,
    }


def scan_digest(records) -> list[tuple]:
    return [(r.uid, r.period.start) for r in records]


def hop_digest(result) -> tuple:
    edges, targets = result
    return (
        {uid: [e.uid for e in lst] for uid, lst in edges.items()},
        {uid: r.period.start for uid, r in targets.items()},
    )


def path_digest(pathways) -> set[tuple]:
    return {p.key() for p in pathways}


def test_executor_ablation_table(capsys):
    store = build_churned_store()
    end = store.clock.now()
    mid = (T0 + end) / 2
    current = TimeScope.current()
    at_mid = TimeScope.at(mid)

    vm_atom = parse_rpe("VM()").bind(store.schema)
    vm_uids = sorted(r.uid for r in store.scan_atom(vm_atom, current))
    host_atom = parse_rpe("Host()").bind(store.schema)
    host_uids = sorted(r.uid for r in store.scan_atom(host_atom, current))

    def two_hop(scope):
        edges = store.in_edges_many(host_uids, scope)
        sources = store.get_many(
            [e.source_uid for lst in edges.values() for e in lst], scope
        )
        return edges, sources

    db = NepalDB(schema=store.schema, clock=store.clock)
    db.attach_store("bench", store)
    path_rpe = "VM()->[OnServer()]->Host()"

    cases = [
        (
            "anchor scan VM() current",
            lambda: store.scan_atom(vm_atom, current),
            scan_digest,
        ),
        (
            "temporal filter VM() AT t_mid",
            lambda: store.scan_atom(vm_atom, at_mid),
            scan_digest,
        ),
        (
            "2-hop expand Host <- edges <- VM",
            lambda: two_hop(current),
            hop_digest,
        ),
        (
            "2-hop expand AT t_mid",
            lambda: two_hop(at_mid),
            hop_digest,
        ),
        (
            "pathway match VM->OnServer->Host",
            lambda: db.find_paths(path_rpe, store="bench"),
            path_digest,
        ),
    ]

    # Build the CSR outside the timings (the first batch read does);
    # steady state — what the cells measure — reuses it.
    store.batch_enabled = True
    store._csr_snapshot()
    build_ms = cold_build_ms(store)

    rows = []
    table_rows = []
    speedups: dict[str, float] = {}
    for label, fn, digest in cases:
        store.batch_enabled = True
        batch_s, batch_result = timed(fn)
        store.batch_enabled = False
        try:
            row_s, row_result = timed(fn)
        finally:
            store.batch_enabled = True

        # Zero result diffs: the ablation is also a correctness oracle.
        assert digest(batch_result) == digest(row_result), label

        speedup = row_s / batch_s if batch_s > 0 else float("inf")
        speedups[label] = speedup
        rows.append({
            "label": label,
            "batch_ms": batch_s * 1000,
            "row_ms": row_s * 1000,
            "speedup": speedup,
        })
        table_rows.append(
            [label, f"{batch_s * 1000:.2f}", f"{row_s * 1000:.2f}", f"{speedup:.1f}x"]
        )

    filter_speedup = speedups["temporal filter VM() AT t_mid"]
    hop_speedup = min(
        speedups["2-hop expand Host <- edges <- VM"],
        speedups["2-hop expand AT t_mid"],
    )
    min_speedup = min(speedups.values())

    # Runs last: its writes change the graph the cells above measured.
    uids_ever = len(store.known_uids())
    csr_shape = store._csr_snapshot().describe()
    churn = churn_cell(store, cases[-1][1])
    store.batch_enabled = False
    try:
        row_final = path_digest(db.find_paths(path_rpe, store="bench"))
    finally:
        store.batch_enabled = True
    assert path_digest(db.find_paths(path_rpe, store="bench")) == row_final
    table_rows.append([
        "churn: read after write / read only",
        f"{churn['read_after_write_ms']:.2f}",
        f"{churn['read_only_ms']:.2f}",
        f"{churn['churn_read_ratio']:.2f}x",
    ])

    payload = {
        "bench": "executor",
        "elements": ELEMENTS,
        "days": DAYS,
        "repeat": REPEAT,
        "full_scale": FULL_SCALE,
        "churn_fraction": CHURN_FRACTION,
        "uids_ever": uids_ever,
        "live_vms": len(vm_uids),
        "hosts": len(host_uids),
        "csr_build_ms": build_ms,
        "csr_build_runs": BUILD_RUNS,
        "csr": csr_shape,
        "rows": rows,
        "churn": churn,
        "temporal_filter_speedup": filter_speedup,
        "two_hop_speedup": hop_speedup,
        "min_speedup": min_speedup,
        # Machine-independent ratios, compared against the committed
        # baseline by benchmarks/check_regression.py in CI.
        "gate": {
            "higher_is_better": {
                "temporal_filter_speedup": filter_speedup,
                "two_hop_speedup": hop_speedup,
                "min_speedup": min_speedup,
            },
            "lower_is_better": {
                "churn_read_ratio": churn["churn_read_ratio"],
            },
        },
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    with capsys.disabled():
        print()
        print(
            f"== batch vs row executor ({ELEMENTS} elements, {DAYS} churn days, "
            f"{payload['uids_ever']} uids ever, {len(vm_uids)} live VMs, "
            f"CSR build {build_ms:.1f} ms, median of {BUILD_RUNS} cold) =="
        )
        print(format_table(["cell", "batch ms", "row ms", "speedup"], table_rows))
        print(f"(written to {JSON_PATH})")

    # The batch path must never collapse; at the ISSUE's named scale the
    # operator-level cells must clear the 3x acceptance bar.
    assert min_speedup > 0.5, payload
    if FULL_SCALE:
        assert filter_speedup >= 3.0, payload
        assert hop_speedup >= 3.0, payload
