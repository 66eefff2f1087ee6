"""End-to-end benchmark: the paper's corpora through ``nepal serve`` over HTTP.

Run from the repository root::

    python3 perfbench/run.py --workload service-current --seed 1 --seconds 10 --trace 0

One closed-loop client (one request in flight, the next sent when the
previous answer arrives) drives an in-process :class:`NepalServer` with two
worker threads.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` runs the workload once untraced and once
with spans around every layer's public calls (see ``perfbench/tracer.py``)
and reports per-layer self times plus the tracing overhead.

Every answer is checked: each HTTP answer is compared, as a sorted list
of rendered pathways, with the same request replayed in process through
``NepalDB.find_paths`` on a twin database built on the row execution path.
Time-range answers also have their validity intervals, from the twin's
``find_paths`` and from the served database's executor, compared with an
element-lifetime oracle.  The Table 1/2 shape claims are checked on the
reference answers.  A non-2xx status or a
mismatch is one failed operation.  The last line of standard output is
the JSON result; the lines before it (prefixed ``#``) are the report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

SETUPS = 3
"""Set-ups per ``--trace 0`` run; ``setup_s`` is their median.  A set-up
generates, loads and churns the graph, starts the server and finishes one
untimed warm pass (first CSR build, caches).  The first serves the timed
window; the others run after the answer check and are closed at once."""

CALIBRATE_EVERY_S = 0.5
"""How often a timed window pauses for one machine-speed calibration."""

SERVER_WORKERS = 2


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SOURCE / "repro").is_dir():
    # Without the program there is nothing to measure; no result is printed.
    if __name__ == "__main__":
        _fail(f"no program sources under {SOURCE}")
sys.path[:0] = [str(SOURCE), str(ROOT)]

from perfbench import metrics as m  # noqa: E402
from perfbench.tracer import Tracer, instrument  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WAL_SYNC,
    WORKLOADS,
    WRITE_INTERVAL_S,
    WRITES,
    Built,
    Read,
    Write,
)


# ---------------------------------------------------------------------------
# one served database
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One executed request as the client saw it."""

    request: Read | Write
    latencies: list[float] = field(default_factory=list)
    statuses: list[int | None] = field(default_factory=list)
    digest: str | None = None
    """:func:`metrics.answer_digest` of a read's answer; the rows are not kept."""
    inserted: int | None = None
    response_bytes: int = 0
    fresh: bool = False


class Session:
    """A built database served over HTTP, plus the client loop state."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        from repro.server.app import NepalServer, ServerConfig
        from repro.server.client import NepalClient

        self.data_dir = None
        if workload in WRITES:
            self.data_dir = work_dir / "data"
            self.data_dir.mkdir(parents=True)
        self.built: Built = WORKLOADS[workload](
            seed, str(self.data_dir) if self.data_dir else None
        )
        self.db = self.built.db
        self.placements = dict(self.built.placements)
        self.server = NepalServer(
            self.db, ServerConfig(workers=SERVER_WORKERS)
        ).start()
        self.client = NepalClient(*self.server.address, retry_503=0)
        self.log: list[Outcome] = []
        self.calibrations: list[float] = []
        self.tracer: Tracer | None = None
        self._request_ids = 0
        self._after_write = False

    def close(self) -> None:
        self.server.stop()
        self.db.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    # -- transport ---------------------------------------------------------

    def _post(self, path: str, payload: dict[str, Any], label: str):
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        self._request_ids += 1
        span = (contextlib.nullcontext() if self.tracer is None
                else self.tracer.request(self._request_ids, label))
        started = time.perf_counter()
        try:
            with span:
                status, _, raw = self.client.raw_request("POST", path, body, headers)
                decoded = json.loads(raw) if 200 <= status < 300 else None
        except OSError:
            status, raw, decoded = None, b"", None
        return time.perf_counter() - started, status, raw, decoded

    def read(self, request: Read) -> Outcome:
        latency, status, raw, decoded = self._post(
            "/query", {"query": request.text}, "server.query"
        )
        outcome = Outcome(request, [latency], [status], response_bytes=len(raw),
                          fresh=self._after_write)
        self._after_write = False
        if decoded is not None:
            outcome.digest = m.answer_digest(row["bindings"]["P"] for row in decoded["rows"])
        self.log.append(outcome)
        return outcome

    def write(self, request: Write) -> Outcome:
        # Each write event gets its own transaction time, as a live feed would.
        self.db.clock.advance(WRITE_INTERVAL_S)
        outcome = Outcome(request)
        for payload in _write_payloads(request, self.placements):
            latency, status, _, decoded = self._post("/write", payload, "server.write")
            outcome.latencies.append(latency)
            outcome.statuses.append(status)
            if decoded is not None and "uid" in decoded:
                outcome.inserted = decoded["uid"]
                self.placements[request.uid] = decoded["uid"]
        self._after_write = True
        self.log.append(outcome)
        return outcome

    def warm(self) -> None:
        for request in self.built.warm:
            self.read(request)

    def window(self, seconds: float) -> tuple[list[Outcome], float]:
        """Closed loop for *seconds*; returns the outcomes and the time spent
        in it, less the machine-speed calibrations taken between requests."""
        first = len(self.log)
        started = time.perf_counter()
        deadline = started + seconds
        next_calibration = started
        calibrating = 0.0
        requests = self.built.requests
        while (now := time.perf_counter()) < deadline:
            if now >= next_calibration:
                self.calibrations.append(m.calibration_s())
                calibrating += time.perf_counter() - now
                next_calibration = now + CALIBRATE_EVERY_S
                continue
            request = next(requests)
            if isinstance(request, Write):
                self.write(request)
            else:
                self.read(request)
        return self.log[first:], time.perf_counter() - started - calibrating


def _write_payloads(request: Write, placements: dict[int, int]):
    if request.kind == "migrate":
        yield {"op": "delete", "uid": placements[request.uid]}
        yield {"op": "insert_edge", "class": "OnServer",
               "source": request.uid, "target": request.host, "fields": {}}
    else:
        yield {"op": "update", "uid": request.uid, "changes": request.changes}


# ---------------------------------------------------------------------------
# reference answers and shape claims
# ---------------------------------------------------------------------------


def _intervals(validity) -> list[tuple[float, float]]:
    return [(interval.start, interval.end) for interval in validity.intervals]


def lifetime_validity(store, pathway) -> list[tuple[float, float]]:
    """When every element of *pathway* existed: the intersection of each
    element's lifetime (the union of its versions' periods).

    This is the maximal validity of a time-range answer whenever the RPE
    constrains only fields no write changes — true of every range request
    here, whose predicates are ids and edge categories while the churn
    changes statuses and deletes and revives elements.  It shares no code
    with the interval-weighted automaton behind ``find_paths``.
    """
    from repro.temporal.interval import FOREVER, Interval, IntervalSet

    everything = Interval(-FOREVER, FOREVER)
    alive = IntervalSet.always()
    for element in pathway.elements:
        alive = alive.intersect(
            IntervalSet([version.period for version in store.versions(element.uid, everything)])
        )
    return _intervals(alive)


def reference_answer(db, request: Read) -> tuple[list[str], bool]:
    """(rendered pathways from ``NepalDB.find_paths``, validity agrees).

    *db* is the reference twin.  For a time-range request the validity
    intervals ``find_paths`` attaches must equal :func:`lifetime_validity`,
    pathway by pathway.
    """
    pathways = db.find_paths(request.rpe, at=request.at, between=request.between)
    renders = [pathway.render() for pathway in pathways]
    return renders, request.scope != "range" or _validity_ok(db.store, pathways)


def _validity_ok(store, pathways) -> bool:
    return all(_intervals(p.validity) == lifetime_validity(store, p) for p in pathways)


def served_validity_ok(db, request: Read) -> bool:
    """The validity the served database's executor attaches to a
    time-range answer (the code behind ``POST /query``, whose rows carry
    no validity over HTTP) equals :func:`lifetime_validity`."""
    result = db.query(request.text)
    return _validity_ok(db.store, result.pathways("P"))


def _answer_ok(outcomes: m.Outcomes, outcome: Outcome, reference: tuple[list[str], bool]):
    renders, validity_ok = reference
    detail = outcome.request.text
    if outcome.digest is None:
        return
    if outcomes.check_answer(outcome.digest, m.answer_digest(renders), detail):
        if not validity_ok:
            outcomes.fail("validity", detail)


def reference_twin(workload: str, seed: int) -> Built:
    """The served database generated again, in memory, on the row
    execution path: its answers come from other operators, another CSR
    (none) and its own plan cache, so a fault in the served engine does not
    repeat in the reference."""
    return WORKLOADS[workload](seed, None, batch=False)


def verify(session: Session, workload: str, seed: int) -> tuple[m.Outcomes, dict]:
    """Count every executed operation and compare each answer with the
    same request replayed in process on :func:`reference_twin`.

    Also returns ``{kind: {text: path count}}`` of the current-scope
    reference answers, for the shape claims."""
    outcomes = m.Outcomes()
    paths: dict[str, dict[str, int]] = {}
    for outcome in session.log:
        for status in outcome.statuses:
            outcomes.attempt()
            outcomes.check_status(status, _describe(outcome.request))
    twin = reference_twin(workload, seed)
    try:
        if workload in WRITES:
            _replay_writes(session, twin, outcomes)
            return outcomes, {}
        cache: dict[Read, tuple[list[str], bool]] = {}
        for outcome in session.log:
            request = outcome.request
            if request not in cache:
                renders, validity_ok = reference_answer(twin.db, request)
                if request.scope == "range" and not served_validity_ok(session.db, request):
                    validity_ok = False
                cache[request] = renders, validity_ok
            _answer_ok(outcomes, outcome, cache[request])
    finally:
        twin.db.close()
    for request, (renders, _) in cache.items():
        if request.scope == "current":
            paths.setdefault(request.kind, {})[request.text] = len(renders)
    return outcomes, paths


def _replay_writes(session: Session, twin: Built, outcomes: m.Outcomes):
    """Replay the executed sequence on the twin: the same writes at the
    same transaction times, and each read through ``find_paths`` at the
    point of the sequence where it was served."""
    db = twin.db
    placements = dict(twin.placements)
    for outcome in session.log:
        request = outcome.request
        if isinstance(request, Read):
            _answer_ok(outcomes, outcome, reference_answer(db, request))
            continue
        db.clock.advance(WRITE_INTERVAL_S)
        if request.kind == "migrate":
            db.delete(placements[request.uid])
            uid = db.insert_edge("OnServer", request.uid, request.host, {})
            placements[request.uid] = uid
            if outcome.inserted is not None and outcome.inserted != uid:
                outcomes.fail("mismatch", f"{_describe(request)} inserted "
                              f"{outcome.inserted}, reference {uid}")
        else:
            db.update(request.uid, request.changes)


def _describe(request: Read | Write) -> str:
    return request.text if isinstance(request, Read) else f"{request.kind} {request.uid}"


def _avg_paths(paths: dict[str, dict[str, int]], kinds: set[str]) -> float:
    """The paper's protocol: average path count over non-empty instances."""
    counts = [n for kind in kinds for n in paths.get(kind, {}).values() if n]
    return statistics.mean(counts) if counts else 0.0


def shape_claims(workload: str, paths: dict[str, dict[str, int]]) -> dict[str, bool]:
    """Table 1/2 claims on the current-scope reference answers."""
    from perfbench.workloads import HORIZONTAL, VERTICAL

    if workload in WRITES:
        return {}
    claims = {
        "horizontal returns more paths than vertical":
            _avg_paths(paths, HORIZONTAL) > _avg_paths(paths, VERTICAL),
    }
    if workload == "service-current":
        claims["Host-Host (6) > 3x Host-Host (4)"] = (
            _avg_paths(paths, {"Host-Host (6)"}) > 3 * _avg_paths(paths, {"Host-Host (4)"})
        )
    else:
        claims["reverse path > 10x service path"] = (
            _avg_paths(paths, {"reverse path"}) > 10 * _avg_paths(paths, {"service path"})
        )
    return claims


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _ms(values: list[float], q: float) -> float | None:
    return m.percentile(values, q) * 1000.0 if values else None


def _rows(window: list[Outcome], factor: float) -> tuple[list[list], list[float]]:
    """Reads as ``[latency, group, scope, fresh]`` and write latencies,
    at the reference CPU speed."""
    reads = [
        [o.latencies[0] * factor, o.request.group, o.request.scope, o.fresh]
        for o in window if isinstance(o.request, Read)
    ]
    writes = [lat * factor for o in window if isinstance(o.request, Write)
              for lat in o.latencies]
    return reads, writes


def end_to_end(reads: list[list], writes: list[float], elapsed: float) -> dict[str, Any]:
    """Latency figures of the timed windows, in the client's view."""
    latency = [row[0] for row in reads]

    def p50(pick) -> float | None:
        return _ms([row[0] for row in reads if pick(*row[1:])], 50)

    return {
        "query_p50_ms": _ms(latency, 50),
        "query_p90_ms": _ms(latency, 90),
        "query_p99_ms": _ms(latency, 99),
        "query_per_s": len(reads) / elapsed,
        "vertical_p50_ms": p50(lambda group, scope, fresh: group == "vertical"),
        "horizontal_p50_ms": p50(lambda group, scope, fresh: group == "horizontal"),
        "timeslice_p50_ms": p50(lambda group, scope, fresh: scope == "at"),
        "timerange_p50_ms": p50(lambda group, scope, fresh: scope == "range"),
        "fresh_read_p50_ms": p50(lambda group, scope, fresh: fresh),
        "write_p50_ms": _ms(writes, 50),
        "write_p99_ms": _ms(writes, 99),
    }


END_TO_END = ("setup_s", "peak_rss_mb", "query_p50_ms", "query_p90_ms", "query_per_s",
              "vertical_p50_ms")
"""Gated metrics: reported on every workload.  The others in
:func:`end_to_end` are printed in the report: most apply to some workloads
only, and ``query_p99_ms`` moves by more than any allowed bound between
runs of the same code (GC pauses and the machine's slow spells decide
which requests form the top 1%)."""

UNITS = {"_per_s": "1/s", "_ms": "ms", "_s": "s", "_mb": "MB", "_kb": "KB", "_ratio": "ratio",
         "_share": "ratio", ".us_per_pathway": "us", ".bytes_per_write": "B"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _peak_rss_mb() -> float:
    """Peak RSS of the process, less what the calibration's chain adds."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak - m.calibration_rss_mb()


def _dir_bytes(path: Path | None) -> int:
    if path is None:
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cache_delta(before: dict, after: dict, name: str) -> tuple[int, int]:
    hits = after[name]["hits"] - before[name]["hits"]
    misses = after[name]["misses"] - before[name]["misses"]
    return hits, misses


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(session: Session, tracer: Tracer, traced: list[Outcome],
              untraced: list[Outcome], stats: tuple[dict, dict],
              wal_bytes: int) -> dict[str, float]:
    """Self time per layer (ms per read or per write) from the traced window."""
    from repro.storage.memgraph.store import build_csr

    spans = tracer.spans
    own = m.self_time_by_name(spans)
    reads = [o for o in traced if isinstance(o.request, Read)]
    write_events = [o for o in traced if isinstance(o.request, Write)]
    posts = sum(len(o.latencies) for o in write_events)
    n = len(reads)
    before, after = stats

    def per_read(name: str) -> float:
        return _ratio(own.get(name, 0.0) * 1000.0, n)

    def per_post(name: str) -> float:
        return _ratio(own.get(name, 0.0) * 1000.0, posts)

    traversals = m.outermost(spans, "traverse.find_pathways")
    pathways = sum(span.items or 0 for span in traversals)
    query_total = sum(span.duration for span in m.outermost(spans, "core.query"))
    builds = [span.duration for span in spans if span.name == "storage.csr_build"]
    build_count = len(builds)
    if not builds:
        # Read-only windows rebuild nothing; time cold builds of the
        # served graph directly so the layer still has a figure.
        store = getattr(session.db.store, "inner", session.db.store)
        for _ in range(3):
            started = time.perf_counter()
            build_csr(store)
            builds.append(time.perf_counter() - started)
    events_before = before["events"]
    events_after = after["events"]
    expanded = events_after.get("index.expand.nodes", 0) - events_before.get(
        "index.expand.nodes", 0)
    p50_traced = _ms([o.latencies[0] for o in reads], 50)
    p50_untraced = _ms([o.latencies[0] for o in untraced if isinstance(o.request, Read)], 50)
    hits = _hit_ratios(before, after)
    return {
        "query.parse_ms": per_read("query.parse"),
        "query.typecheck_ms": per_read("query.typecheck"),
        "query.memo_hit_ratio": hits["query.memo_hit_ratio"],
        "plan.compile_ms": per_read("plan.compile"),
        "plan.cache_hit_ratio": hits["plan.cache_hit_ratio"],
        "plan.execute_overhead_ms": per_read("core.query"),
        "traverse.find_pathways_ms": per_read("traverse.find_pathways"),
        "traverse.pathways": _ratio(pathways, n),
        "traverse.us_per_pathway": _ratio(own.get("traverse.find_pathways", 0.0) * 1e6,
                                          pathways),
        "traverse.evaluate_share": _ratio(own.get("traverse.find_pathways", 0.0), query_total),
        "storage.expand_nodes_per_pathway": _ratio(expanded, pathways),
        "storage.csr_build_ms": m.median(builds) * 1000.0,
        "storage.csr_builds": build_count,
        "storage.csr_builds_per_write": _ratio(build_count, len(write_events)),
        "temporal.validity_ms": per_read("temporal.validity"),
        "wal.write_ms": per_post("wal.write"),
        "wal.bytes_per_write": _ratio(wal_bytes, posts),
        "core.commit_ms": per_post("core.commit"),
        "core.query_ms": _ratio(query_total * 1000.0, n),
        "server.transport_ms": per_read("server.query"),
        "server.response_kb": _ratio(sum(o.response_bytes for o in reads) / 1024.0, n),
        "trace.overhead_ms": (p50_traced or 0.0) - (p50_untraced or 0.0),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _report(line: str) -> None:
    print(f"# {line}", flush=True)


def _report_metrics(title: str, values: dict[str, Any]) -> None:
    _report(title)
    for name, value in values.items():
        shown = "n/a (not exercised by this workload)" if value is None else repr(value)
        _report(f"  {name:34s} {shown} {unit_of(name) if value is not None else ''}")


def _hit_ratios(before: dict, after: dict) -> dict[str, float]:
    parse = _cache_delta(before, after, "parse")
    typecheck = _cache_delta(before, after, "typecheck")
    plan = _cache_delta(before, after, "plan")
    return {
        "plan.cache_hit_ratio": _ratio(plan[0], sum(plan)),
        "query.memo_hit_ratio": _ratio(parse[0] + typecheck[0], sum(parse) + sum(typecheck)),
    }


def _set_up(workload: str, seed: int, work_dir: Path) -> tuple[Session, float]:
    started = time.perf_counter()
    session = Session(workload, seed, work_dir)
    try:
        session.warm()
    except BaseException:
        session.close()
        raise
    return session, time.perf_counter() - started


def measure(workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    """A ``--trace 0`` run: set up, measure the window, check every answer,
    then set up :data:`SETUPS` - 1 more times for ``setup_s``."""
    calibrations = [m.calibration_s() for _ in range(3)]
    session, setup = _set_up(workload, seed, work_dir)
    try:
        before = session.db.stats()
        window, elapsed = session.window(seconds)
        after = session.db.stats()
        peak_rss = _peak_rss_mb()
        outcomes, paths = verify(session, workload, seed)
    finally:
        session.close()
    calibrations += session.calibrations
    setups = [setup]
    for _ in range(SETUPS - 1):
        calibrations.append(m.calibration_s())
        again, setup = _set_up(workload, seed, work_dir)
        again.close()
        setups.append(setup)
    factor = m.speed_factor(calibrations)
    reads, writes = _rows(window, factor)
    figures = end_to_end(reads, writes, elapsed * factor)
    figures["setup_s"] = m.median(setups) * factor
    figures["peak_rss_mb"] = peak_rss
    values = {name: figures[name] for name in END_TO_END}
    _report_workload(workload, session.built.census, _hit_ratios(before, after))
    _report(f"speed factor {factor:.3f}; raw set-ups "
            + ", ".join(f"{t:.3f}s" for t in setups)
            + f"; {len(reads)} reads in {elapsed:.2f}s raw")
    _report(f"{len(reads)} reads, {len(writes)} write requests; "
            f"query_p99_ms has {m.samples_beyond(len(reads), 99)} samples beyond it")
    _report("times below are at the reference CPU speed: raw time x speed factor")
    _report_metrics("end-to-end, workload-specific (client over HTTP, tracing off):",
                    {k: v for k, v in figures.items() if k not in values})
    return _result(workload, values, outcomes, paths)


def measure_traced(workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    """A ``--trace 1`` run: half the window untraced, half traced."""
    session, _ = _set_up(workload, seed, work_dir)
    try:
        untraced, _ = session.window(seconds / 2)
        before = session.db.stats()
        wal_before = _dir_bytes(session.data_dir)
        tracer = Tracer()
        with instrument(tracer):
            session.tracer = tracer
            traced, _ = session.window(seconds / 2)
            session.tracer = None
        after = session.db.stats()
        wal_bytes = _dir_bytes(session.data_dir) - wal_before
        values = per_layer(session, tracer, traced, untraced, (before, after), wal_bytes)
        outcomes, paths = verify(session, workload, seed)
    finally:
        session.close()
    _report_workload(workload, session.built.census, _hit_ratios(before, after))
    _report(f"{len(tracer.spans)} spans over {len(traced)} traced requests")
    return _result(workload, values, outcomes, paths)


def _report_workload(workload: str, census: dict, hits: dict[str, float]) -> None:
    _report(f"workload {workload}: closed loop, 1 client, {SERVER_WORKERS} server workers")
    _report("graph " + ", ".join(f"{k}={v}" for k, v in census.items()))
    if workload in WRITES:
        _report(f"durable data_dir, WAL sync policy '{WAL_SYNC}'")
    _report("caches " + ", ".join(f"{k}={v!r}" for k, v in hits.items()))


def _result(workload: str, values: dict[str, Any], outcomes: m.Outcomes,
            paths: dict[str, dict[str, int]]) -> dict:
    claims = shape_claims(workload, paths)
    _report_metrics("reported:", values)
    for claim, holds in claims.items():
        _report(f"shape claim {'holds' if holds else 'FAILS'}: {claim}")
    _report(f"{outcomes.attempted} operations, {outcomes.failed} failed "
            f"{outcomes.by_kind or ''}")
    for reason in outcomes.reasons:
        _report(f"  {reason}")
    missing = [name for name, value in values.items() if value is None]
    return {
        "correct": outcomes.failed == 0 and all(claims.values()) and not missing,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": value if value is not None else 0.0, "unit": unit_of(name)}
            for name, value in values.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    work_root = ROOT / ".perfbench-work"
    work_dir = work_root / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = measure_traced if args.trace else measure
        result = run(args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
