"""Time-scope-aware cardinality estimation and scope-keyed plan caching.

Historical anchors must be costed with what existed *then*: a churned
inventory can have wildly different class populations at different times,
and anchor choice (§5.1) follows the counts.  The estimator asks the
store's ``class_count_at`` and trusts an indexed answer even when it is
zero — "the class did not exist at t" is information, not missing
statistics — while backends without temporal counts fall back to current
counts and schema hints.
"""

from __future__ import annotations

from repro.plan.cache import PlanCache
from repro.plan.planner import Planner, PlannerOptions
from repro.rpe.parser import parse_rpe
from repro.schema.registry import Schema
from repro.stats.cardinality import CLASS_COUNT_CACHE_SIZE, CardinalityEstimator
from repro.storage.base import TimeScope
from repro.storage.memgraph.store import MemGraphStore
from repro.storage.relational.store import RelationalStore
from repro.temporal.clock import TransactionClock

T0 = 1_000.0


def build_schema() -> Schema:
    schema = Schema("scoped")
    schema.define_node("Widget", fields={"status": "string"}, expected_count=7)
    schema.define_node("Gadget", fields={"status": "string"})
    return schema


def churned_store() -> MemGraphStore:
    store = MemGraphStore(build_schema(), clock=TransactionClock(start=T0))
    uids = [store.insert_node("Widget", {"status": "up"}) for _ in range(10)]
    store.clock.advance(100)
    for uid in uids[:8]:
        store.delete_element(uid)
    store.clock.advance(100)
    return store


def test_historical_cardinality_reflects_the_past():
    store = churned_store()
    estimator = CardinalityEstimator(store)
    widget = store.schema.resolve("Widget")
    assert estimator.class_cardinality(widget) == 2.0
    assert estimator.class_cardinality(widget, TimeScope.at(T0 + 50)) == 10.0
    assert estimator.class_cardinality(widget, TimeScope.between(T0, T0 + 150)) == 10.0
    assert estimator.class_cardinality(widget, TimeScope.current()) == 2.0


def test_exact_historical_zero_is_trusted_over_hints():
    store = churned_store()
    estimator = CardinalityEstimator(store)
    widget = store.schema.resolve("Widget")
    # Before T0 nothing existed: the indexed answer 0 must NOT fall through
    # to the expected_count hint (7) or the default (1000).
    assert estimator.class_cardinality(widget, TimeScope.at(T0 - 10)) == 0.0
    # A *current* count of zero still means "no statistics" and uses hints.
    gadget = store.schema.resolve("Gadget")
    assert estimator.class_cardinality(gadget) == 1000.0  # no hint, default


def test_backends_without_temporal_counts_fall_back_to_current():
    store = RelationalStore(build_schema(), clock=TransactionClock(start=T0))
    for _ in range(4):
        store.insert_node("Widget", {"status": "up"})
    assert store.class_count_at("Widget", TimeScope.at(T0 - 5)) is None
    estimator = CardinalityEstimator(store)
    widget = store.schema.resolve("Widget")
    assert estimator.class_cardinality(widget, TimeScope.at(T0 - 5)) == 4.0


def test_estimate_threads_scope_through_predicate_selectivities():
    store = churned_store()
    estimator = CardinalityEstimator(store)
    atom = parse_rpe("Widget(status='up')").bind(store.schema)
    # Equality selectivity 0.1 over 2 current widgets floors at 0.5; over
    # the 10 that existed at T0+50 it stays at 1.0.
    assert estimator.estimate(atom) == 0.5
    assert estimator.estimate(atom, TimeScope.at(T0 + 50)) == 1.0


def test_scoped_counts_cached_independently_and_invalidated_together():
    store = churned_store()
    estimator = CardinalityEstimator(store)
    widget = store.schema.resolve("Widget")
    historic = TimeScope.at(T0 + 50)
    assert estimator.class_cardinality(widget, historic) == 10.0
    assert estimator.class_cardinality(widget) == 2.0
    store.insert_node("Widget", {"status": "late"})
    # data_version drift refreshes the epoch and drops *both* cache entries.
    assert estimator.class_cardinality(widget) == 3.0
    assert estimator.class_cardinality(widget, historic) == 10.0


def test_count_cache_stays_bounded_under_distinct_timestamps():
    """A read-only store never moves the epoch, so only the capacity bounds
    the per-scope entries a client's stream of ``AT`` timestamps creates."""
    store = churned_store()
    estimator = CardinalityEstimator(store)
    widget = store.schema.resolve("Widget")
    epoch = estimator.stats_epoch
    # Distinct instants before, during and after the two lifetimes.
    instants = [T0 - 50 + i * 0.25 for i in range(CLASS_COUNT_CACHE_SIZE + 100)]
    for t in instants + instants[:20]:
        expected = 0.0 if t < T0 else (10.0 if t < T0 + 100 else 2.0)
        assert estimator.class_cardinality(widget, TimeScope.at(t)) == expected, t
        assert len(estimator._class_count_cache) <= CLASS_COUNT_CACHE_SIZE
    assert len(estimator._class_count_cache) == CLASS_COUNT_CACHE_SIZE
    assert estimator.stats_epoch == epoch


def test_plan_cache_keys_on_scope_kind_not_timestamps():
    store = churned_store()
    estimator = CardinalityEstimator(store)
    options = PlannerOptions()

    def key(scope):
        return PlanCache.key_for("Widget()", "default", store, estimator, options,
                                 scope=scope)

    current = key(TimeScope.current())
    assert current == key(None)
    at_one = key(TimeScope.at(T0 + 1))
    assert at_one != current
    # A timestamp sweep reuses one entry per scope kind...
    assert at_one == key(TimeScope.at(T0 + 999))
    # ...while AT and RANGE stay distinct (different costing regimes).
    assert key(TimeScope.between(T0, T0 + 5)) != at_one
    # Distinct scope kinds are distinct *templates*: storing one must not
    # purge the other as stale.
    cache = PlanCache()
    assert current.template() != at_one.template()


def test_planner_can_flip_anchor_choice_per_scope():
    schema = Schema("flip")
    schema.define_node("Common", fields={})
    schema.define_node("Rare", fields={})
    schema.define_edge("Ties", endpoints=[("Common", "Rare"), ("Rare", "Common")])
    store = MemGraphStore(schema, clock=TransactionClock(start=T0))
    # Then: 12 Rare, 3 Common, 12 Ties.  Now: 1 Rare, 3 Common, 12 Ties
    # (every edge targets the surviving Rare, so deletions cascade nothing).
    rare = [store.insert_node("Rare") for _ in range(12)]
    common = [store.insert_node("Common") for _ in range(3)]
    for i in range(12):
        store.insert_edge("Ties", common[i % 3], rare[-1])
    store.clock.advance(100)
    for uid in rare[:11]:
        store.delete_element(uid)
    store.clock.advance(100)
    planner = Planner(schema, CardinalityEstimator(store))
    rpe = parse_rpe("Common()->Ties()->Rare()").bind(schema)
    now_plan = planner.compile(rpe, bound=True)
    then_plan = planner.compile(rpe, bound=True, scope=TimeScope.at(T0 + 50))
    anchor_of = lambda program: program.anchor_plan.splits[0].anchor.class_name
    assert anchor_of(now_plan) == "Rare"  # 1 current Rare beats 3 Common
    assert anchor_of(then_plan) == "Common"  # 3 beat 12 back then
