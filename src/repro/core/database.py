"""``NepalDB`` — the user-facing database object.

Bundles a schema, one or more backends, the planner and the query executor
behind a small API:

>>> from repro import NepalDB
>>> db = NepalDB()                        # built-in network schema, in-memory
>>> host = db.insert_node("Host", {"name": "server-1"})
>>> result = db.query("Retrieve P From PATHS P Where P MATCHES Host()")
>>> len(result)
1

Backends: ``backend="memory"`` (default) uses the property-graph engine,
``backend="relational"`` the SQL-generating engine on SQLite.  Additional
stores can be attached for federated queries (``From PATHS@legacy P``).
"""

from __future__ import annotations

import re
import time
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.concurrency import ReadSnapshot, WriteGate
from repro.core.resilience import ResiliencePolicy
from repro.errors import FederationError, NepalError
from repro.model.pathway import Pathway
from repro.plan.cache import PlanCache
from repro.plan.executor import QueryExecutor
from repro.plan.planner import Planner, PlannerOptions
from repro.query.ast import Query
from repro.query.results import QueryResult
from repro.query.temporal_agg import PathEvolution, path_evolution
from repro.query.results import ResultRow
from repro.schema.builtin import build_network_schema
from repro.schema.registry import Schema
from repro.stats.metrics import MetricsRegistry
from repro.stats.tracing import SlowQueryLog, TraceContext
from repro.storage.base import GraphStore, TimeScope
from repro.temporal.clock import TransactionClock
from repro.temporal.interval import Interval, parse_timestamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.plan.explain import ExplainAnalysis

DEFAULT_STORE_NAME = "default"

#: ``EXPLAIN [ANALYZE] <query>`` prefix on the textual query path.  NPQL
#: statements start with Select/Retrieve/AT, so the keyword is unambiguous.
_EXPLAIN_PREFIX = re.compile(r"\s*explain(?P<analyze>\s+analyze)?\s+", re.IGNORECASE)


def _plan_result(text: str) -> QueryResult:
    """A plan rendering as a one-column result set (one row per line)."""
    return QueryResult(("plan",), [ResultRow(values=(line,)) for line in text.splitlines()])


def _build_store(
    backend: str,
    schema: Schema,
    clock: TransactionClock | None,
    name: str,
    metrics: MetricsRegistry | None = None,
) -> GraphStore:
    if backend == "memory":
        from repro.storage.memgraph.store import MemGraphStore

        return MemGraphStore(schema, clock=clock, name=name, metrics=metrics)
    if backend == "relational":
        from repro.storage.relational.store import RelationalStore

        return RelationalStore(schema, clock=clock, name=name)
    raise NepalError(f"unknown backend {backend!r} (expected 'memory' or 'relational')")


class NepalDB:
    """A Nepal database instance."""

    def __init__(
        self,
        schema: Schema | None = None,
        backend: str = "memory",
        clock: TransactionClock | None = None,
        planner_options: PlannerOptions | None = None,
        resilience: ResiliencePolicy | None = None,
        allow_partial: bool = False,
        data_dir: str | None = None,
        durable_sync: str = "commit",
    ):
        self.schema = schema or build_network_schema()
        self.clock = clock or TransactionClock()
        self._planner_options = planner_options or PlannerOptions()
        self._metrics = MetricsRegistry()
        if data_dir is not None:
            if backend != "memory":
                raise NepalError(
                    "data_dir journals the in-memory backend; the relational "
                    "backend is already durable through its database file "
                    "(pass path= to RelationalStore instead)"
                )
            from repro.storage.durable import DurableStore
            from repro.storage.memgraph.store import MemGraphStore

            inner = MemGraphStore(
                self.schema,
                clock=self.clock,
                name=DEFAULT_STORE_NAME,
                metrics=self._metrics,
            )
            default_store: GraphStore = DurableStore(
                inner, data_dir, metrics=self._metrics, sync=durable_sync
            )
        else:
            default_store = _build_store(
                backend, self.schema, self.clock, DEFAULT_STORE_NAME, self._metrics
            )
        self._stores: dict[str, GraphStore] = {DEFAULT_STORE_NAME: default_store}
        self._apply_batch_option(default_store)
        self._plan_cache = PlanCache(metrics=self._metrics)
        self._resilience = resilience
        self._allow_partial = allow_partial
        self._executor: QueryExecutor | None = None
        self._gate = WriteGate(metrics=self._metrics)
        self._slow_log: SlowQueryLog | None = None

    # ------------------------------------------------------------------
    # stores & federation
    # ------------------------------------------------------------------

    @property
    def store(self) -> GraphStore:
        """The default backend."""
        return self._stores[DEFAULT_STORE_NAME]

    def _apply_batch_option(self, store: GraphStore) -> None:
        """Propagate ``PlannerOptions.batch_enabled`` onto a store's engine.

        The flag lives on the innermost store that actually has a batch
        engine — setting it through a delegating wrapper's ``__getattr__``
        fallthrough would shadow it on the wrapper instead — so unwrap the
        ``_inner`` chain.  Backends without the flag keep their row path.
        """
        if self._planner_options.batch_enabled:
            return
        target: object = store
        while target is not None:
            if "batch_enabled" in vars(target):
                target.batch_enabled = False
                return
            target = getattr(target, "_inner", None)

    def attach_store(self, name: str, store: GraphStore) -> None:
        """Register an additional backend for ``PATHS@name`` variables."""
        if name in self._stores:
            raise FederationError(f"store name {name!r} already attached")
        self._stores[name] = store
        self._apply_batch_option(store)
        self._executor = None

    def stores(self) -> dict[str, GraphStore]:
        """All attached stores by catalog name."""
        return dict(self._stores)

    def executor(self) -> QueryExecutor:
        """The (lazily built) query executor over the attached stores.

        The plan cache and metrics outlive executor rebuilds (a rebuild
        happens when a store is attached): cache keys embed the store,
        its schema version and the statistics epoch, so surviving entries
        stay valid for the stores that didn't change.
        """
        if self._executor is None:
            self._executor = QueryExecutor(
                self._stores,
                DEFAULT_STORE_NAME,
                self._planner_options,
                plan_cache=self._plan_cache,
                metrics=self._metrics,
                resilience=self._resilience,
                allow_partial=self._allow_partial,
            )
        return self._executor

    # ------------------------------------------------------------------
    # durability lifecycle
    # ------------------------------------------------------------------

    def _durable_store(self):
        """The DurableStore in the default store's decorator chain (or None).

        Chaos injection may wrap the durable store, so walk ``.inner``."""
        from repro.storage.durable import DurableStore

        store = self._stores[DEFAULT_STORE_NAME]
        while store is not None:
            if isinstance(store, DurableStore):
                return store
            store = getattr(store, "inner", None)
        return None

    def durable_store(self):
        """Public accessor for :meth:`_durable_store` (replication layer)."""
        return self._durable_store()

    @property
    def recovery_report(self):
        """What crash recovery found at startup (None without data_dir)."""
        durable = self._durable_store()
        return durable.recovery if durable is not None else None

    def checkpoint(self):
        """Compact the full history to disk and truncate the journal.

        Requires the database to have been opened with ``data_dir``.
        """
        durable = self._durable_store()
        if durable is None:
            raise NepalError(
                "checkpoint requires a durable store (open with data_dir=...)"
            )
        return durable.checkpoint()

    def close(self) -> None:
        """Flush and close the durability journal (no-op otherwise)."""
        durable = self._durable_store()
        if durable is not None:
            durable.close()

    def __enter__(self) -> "NepalDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # resilience & fault injection
    # ------------------------------------------------------------------

    def set_resilience(
        self, policy: ResiliencePolicy | None, allow_partial: bool | None = None
    ) -> None:
        """(Re)configure retry/breaker behaviour for backend calls.

        ``policy=None`` turns the resilience layer off.  ``allow_partial``
        opts federated queries into degraded execution: when a backend
        stays down past the retry budget its range variables are dropped
        and the result carries ``warnings`` naming them, instead of the
        default typed :class:`~repro.errors.FederationError`.
        """
        self._resilience = policy
        if allow_partial is not None:
            self._allow_partial = allow_partial
        self._executor = None

    def inject_faults(
        self, plan: "object | None" = None, store: str = DEFAULT_STORE_NAME
    ):
        """Wrap an attached store in a :class:`FaultInjectingStore`.

        Returns the wrapper (whose ``chaos`` counters and ``heal()`` /
        ``set_hard_down()`` controls drive chaos experiments).  Wrapping is
        idempotent per store name — injecting twice stacks wrappers, so
        callers normally do it once, right after construction or loading.
        """
        from repro.storage.chaos import FaultInjectingStore, FaultPlan

        inner = self._stores[store]
        wrapper = FaultInjectingStore(inner, plan or FaultPlan())
        self._stores[store] = wrapper
        self._executor = None
        return wrapper

    # ------------------------------------------------------------------
    # write path (default store)
    # ------------------------------------------------------------------

    def _dirty(self) -> None:
        if self._executor is not None:
            self._executor.invalidate_statistics()

    def insert_node(
        self, class_name: str, fields: Mapping[str, Any] | None = None, uid: int | None = None
) -> int:
        """Insert a node into the default store; returns its uid."""
        with self._gate.commit(self.clock):
            uid = self.store.insert_node(class_name, fields, uid=uid)
        self._dirty()
        return uid

    def insert_edge(
        self,
        class_name: str,
        source: int,
        target: int,
        fields: Mapping[str, Any] | None = None,
        uid: int | None = None,
) -> int:
        """Insert an edge into the default store; returns its uid."""
        with self._gate.commit(self.clock):
            uid = self.store.insert_edge(class_name, source, target, fields, uid=uid)
        self._dirty()
        return uid

    def connect(
        self,
        class_name: str,
        left: int,
        right: int,
        fields: Mapping[str, Any] | None = None,
    ) -> tuple[int, ...]:
        """Insert a connectivity edge, reciprocally when the class is symmetric."""
        edge_class = self.schema.edge_class(class_name)
        with self._gate.commit(self.clock):
            if edge_class.symmetric:
                uids = self.store.insert_symmetric_edge(class_name, left, right, fields)
            else:
                uids = (self.store.insert_edge(class_name, left, right, fields),)
        self._dirty()
        return uids

    def update(self, uid: int, changes: Mapping[str, Any]) -> None:
        """Apply field changes (``None`` removes a field); versions history."""
        with self._gate.commit(self.clock):
            self.store.update_element(uid, changes)
        self._dirty()

    def delete(self, uid: int) -> None:
        """Logically delete an element (nodes cascade to incident edges)."""
        with self._gate.commit(self.clock):
            self.store.delete_element(uid)
        self._dirty()

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------

    def define_view(self, name: str, rpe_text: str) -> None:
        """Register a named pathway view usable as a From source (§3.4).

        >>> db.define_view("PLACEMENTS", "VM()->OnServer()->Host()")
        >>> db.query("Retrieve P From PLACEMENTS P")  # doctest: +SKIP
        """
        self.executor().define_view(name, rpe_text)

    def query(self, query: Query | str, trace: TraceContext | None = None) -> QueryResult:
        """Execute an NPQL query (see :mod:`repro.query`).

        Each call pins an ephemeral read snapshot for its duration, so a
        query racing a concurrent writer still evaluates every range
        variable against one consistent (as-of, data-version) view.  For
        a view that outlives a single query, take :meth:`snapshot`.

        Textual queries may be prefixed ``EXPLAIN`` (render the plan, no
        execution) or ``EXPLAIN ANALYZE`` (execute under tracing, render
        plans with actual cardinalities); both return a one-column
        ``plan`` result.  Passing a fresh :class:`TraceContext` as *trace*
        records the span tree of an ordinary execution without changing
        its result.
        """
        plan = self._maybe_explain(query, trace=trace)
        if plan is not None:
            return plan
        trace, owns_trace = self._sampled_trace(trace)
        started = time.perf_counter() if self._slow_log is not None else 0.0
        view = self._gate.pin(self._stores.values())
        try:
            if view is None:
                result = self.executor().execute(query, trace=trace)
            else:
                result = self.executor().execute(query, snapshot=view, trace=trace)
        finally:
            if view is not None:
                view.release()
        self._record_slow(query, started, result, trace, owns_trace)
        return result

    def _sampled_trace(
        self, trace: TraceContext | None
    ) -> tuple[TraceContext | None, bool]:
        """Apply slow-log trace sampling: (trace to use, did we create it).

        Sampling must be decided *before* execution — a span tree cannot
        be reconstructed after the fact — so every Nth query pays the
        tracing tax on the chance it turns out slow.
        """
        slow_log = self._slow_log
        if slow_log is not None and trace is None and slow_log.wants_trace():
            return TraceContext(label="slow-query-sample"), True
        return trace, False

    def _record_slow(
        self,
        query: Query | str,
        started: float,
        result: QueryResult,
        trace: TraceContext | None,
        owns_trace: bool,
    ) -> None:
        """Feed one finished execution to the slow-query log, if enabled."""
        slow_log = self._slow_log
        if slow_log is None:
            return
        elapsed = time.perf_counter() - started
        text = query if isinstance(query, str) else query.render()
        if slow_log.observe(text, elapsed, len(result.rows), trace):
            self._metrics.event("slowlog.recorded")
        elif owns_trace:
            self._metrics.event("slowlog.sampled_fast")

    def _maybe_explain(
        self,
        query: Query | str,
        snapshot: object | None = None,
        trace: TraceContext | None = None,
    ) -> QueryResult | None:
        """Dispatch a textual ``EXPLAIN [ANALYZE]`` prefix; None otherwise.

        Shared between :meth:`query` and the pinned
        :meth:`~repro.core.concurrency.ReadSnapshot.query` path so EXPLAIN
        works identically over a held snapshot (and hence over HTTP).
        """
        if not isinstance(query, str):
            return None
        prefixed = _EXPLAIN_PREFIX.match(query)
        if prefixed is None:
            return None
        body = query[prefixed.end():]
        if prefixed.group("analyze"):
            if snapshot is not None:
                analysis = self.executor().explain_analyze(
                    body, snapshot=snapshot, trace=trace
                )
            else:
                analysis = self.explain_analyze(body, trace=trace)
            return _plan_result(analysis.render())
        return _plan_result(self.explain(body))

    def snapshot(self, deadline: float | None = None) -> ReadSnapshot:
        """Open a :class:`~repro.core.concurrency.ReadSnapshot`.

        The handle pins (transaction time, data version) for every
        snapshot-capable attached store; any number of threads may query
        it concurrently and all observe the database exactly as it stood
        now, regardless of later commits.  ``deadline`` (seconds) budgets
        each query/find_paths issued through the handle — armed afresh per
        request, so a long-held snapshot keeps serving — raising
        :class:`~repro.errors.QueryDeadlineExceeded` when overrun.
        Close the handle (it is a context manager) when done.
        """
        view = self._gate.pin(self._stores.values(), deadline=deadline)
        if view is None:
            raise NepalError(
                f"no attached store supports snapshots (default backend "
                f"{self.store.name!r} reads live)"
            )
        return ReadSnapshot(self, view)

    @property
    def write_gate(self) -> WriteGate:
        """The single-writer commit gate (open-pin and commit counters)."""
        return self._gate

    def explain(self, query: Query | str, analyze: bool = False) -> str:
        """The per-variable operator plans.

        With ``analyze=True`` the query is executed under tracing and the
        rendering pairs each plan with the rows it actually produced
        (:meth:`explain_analyze` returns the structured form).
        """
        if analyze:
            return self.explain_analyze(query).render()
        return self.executor().explain(query)

    def explain_analyze(
        self, query: Query | str, trace: TraceContext | None = None
    ) -> "ExplainAnalysis":
        """Execute *query* under tracing; estimated vs actual per operator.

        Runs under the same ephemeral snapshot pin as :meth:`query`, so
        the analysis observes exactly what a plain execution would.
        """
        view = self._gate.pin(self._stores.values())
        try:
            return self.executor().explain_analyze(query, snapshot=view, trace=trace)
        finally:
            if view is not None:
                view.release()

    # ------------------------------------------------------------------
    # slow-query log
    # ------------------------------------------------------------------

    @property
    def slow_query_log(self) -> SlowQueryLog | None:
        """The configured slow-query log (None when disabled)."""
        return self._slow_log

    def enable_slow_query_log(
        self,
        threshold: float = 0.25,
        capacity: int = 128,
        trace_every: int = 16,
    ) -> SlowQueryLog:
        """Keep queries slower than *threshold* seconds in a bounded ring.

        Every ``trace_every``-th query (sampling; ``0`` disables capture)
        additionally records its full span tree, so a recurring slow query
        eventually shows up with per-operator detail attached.  Entries
        are JSON-ready dicts via :meth:`slow_queries`.
        """
        self._slow_log = SlowQueryLog(
            threshold=threshold, capacity=capacity, trace_every=trace_every
        )
        return self._slow_log

    def disable_slow_query_log(self) -> None:
        self._slow_log = None

    def slow_queries(self) -> list[dict[str, object]]:
        """Retained slow-query entries, oldest first (empty when disabled)."""
        return self._slow_log.entries() if self._slow_log is not None else []

    def translate(self, query: Query | str) -> str:
        """Generate a standalone Python program for *query* (§3.1)."""
        return self.executor().translate(query)

    def find_paths(
        self,
        rpe: str,
        at: str | float | None = None,
        between: tuple[str | float, str | float] | None = None,
        store: str = DEFAULT_STORE_NAME,
        snapshot: ReadSnapshot | None = None,
    ) -> list[Pathway]:
        """Shortcut: evaluate one RPE and return the matching pathways.

        ``at`` runs a timeslice query, ``between`` a time-range query (the
        returned pathways carry their maximal validity sets).  Compilation
        goes through the same plan cache as full NPQL queries, so repeated
        expressions skip planning entirely.  With *snapshot* (or, absent
        one, an ephemeral per-call pin) evaluation reads are pinned to a
        consistent view; planning always runs against the live store.
        """
        target = self._stores[store]
        executor = self.executor()
        estimator = executor.estimator_for(target)
        if at is not None and between is not None:
            raise NepalError("pass either at= or between=, not both")
        if at is not None:
            scope = TimeScope.at(parse_timestamp(at))
        elif between is not None:
            scope = TimeScope.between(
                parse_timestamp(between[0]), parse_timestamp(between[1])
            )
        else:
            scope = TimeScope.current()
        with self._metrics.timings.measure("cache.key"):
            key = PlanCache.key_for(
                rpe, store, target, estimator, self._planner_options, scope=scope
            )
        with self._metrics.timings.measure("plan"):
            program = self._plan_cache.get_or_compile(
                key,
                lambda: Planner(
                    target.schema,
                    estimator,
                    self._planner_options,
                    nfa_memo=self._plan_cache.nfa_memo,
                ).compile(rpe, scope=scope),
            )
        if snapshot is not None:
            if snapshot.closed:
                raise NepalError("read snapshot is closed")
            view = snapshot.view
            ephemeral = None
        else:
            view = ephemeral = self._gate.pin([target])
        try:
            guarded = executor.evaluation_store(target, view)
            pathways = guarded.find_pathways(program, scope)
            if scope.is_range:
                from repro.temporal.interval import IntervalSet
                from repro.temporal.validity import pathway_validity

                window = IntervalSet([scope.window()])
                kept = []
                for pathway in pathways:
                    validity = pathway_validity(guarded, pathway, program.matcher)
                    if not validity.intersect(window).is_empty():
                        kept.append(pathway.with_validity(validity))
                return kept
            return pathways
        finally:
            if ephemeral is not None:
                ephemeral.release()

    def path_evolution(
        self,
        pathway: Pathway,
        between: tuple[str | float, str | float],
        store: str = DEFAULT_STORE_NAME,
    ) -> PathEvolution:
        """Track how a specific pathway's elements changed over a window."""
        window = Interval(parse_timestamp(between[0]), parse_timestamp(between[1]))
        return path_evolution(self._stores[store], pathway, window)

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------

    def load(self, builder: "Iterable | object") -> None:
        """Load a generated topology (anything with ``apply(store)``)."""
        apply = getattr(builder, "apply", None)
        if apply is None:
            raise NepalError(f"{builder!r} does not provide an apply(store) method")
        with self._gate.commit(self.clock):
            apply(self.store)
        self._dirty()

    def describe(self) -> str:
        """A human-readable census of schema and stores.

        The census reads go through the executor's guarded stores, so a
        flaky backend is retried under the resilience policy instead of
        surfacing an injected fault from ``.stats``.
        """
        executor = self.executor()
        lines = [self.schema.describe()]
        for name, store in self._stores.items():
            lines.append(f"[{name}] {executor.guarded(store).describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # cache observability
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """Counters and per-stage timings for this database's pipeline."""
        return self._metrics

    def cache_stats(self) -> dict[str, object]:
        """A JSON-ready snapshot of cache effectiveness and stage timings.

        Keys: ``plan`` (compiled-program cache, with occupancy), ``parse``,
        ``typecheck`` and ``nfa`` (memo counters), ``events`` (resilience
        retries, breaker trips, degradations, ...), ``timings`` (per
        stage cumulative seconds and call counts), and ``cache.key_ns``
        (cumulative nanoseconds spent building plan-cache keys — the
        interned-key satellite's before/after dial).
        """
        snapshot = self._metrics.snapshot()
        caches = dict(snapshot["caches"])  # type: ignore[arg-type]
        caches["plan"] = self._plan_cache.stats()
        timings = snapshot["timings"]
        key_timing = timings.get("cache.key", {})  # type: ignore[union-attr]
        return {
            **caches,
            "events": snapshot["events"],
            "timings": timings,
            "cache.key_ns": int(round(key_timing.get("seconds", 0.0) * 1e9)),
        }

    def stats(self) -> dict[str, object]:
        """Caches, events and timings in one JSON-ready snapshot.

        A superset of :meth:`cache_stats` for observability tooling; the
        ``events`` map carries the index and join counters of the hot
        path (``index.temporal.*`` anchor decisions on historical scans,
        ``executor.join.*`` hash-join vs nested-loop decisions) next to
        the resilience and cache counters.
        """
        return self.cache_stats()

    def clear_plan_cache(self) -> int:
        """Drop every cached compiled plan; returns how many were held.

        Rarely needed — version counters retire stale entries on their
        own — but useful for benchmarking cold planning and after
        in-place schema surgery that bypasses :class:`Schema` methods.
        """
        return self._plan_cache.invalidate()
