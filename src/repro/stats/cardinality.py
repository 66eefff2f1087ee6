"""Anchor cost estimation.

"The costing of an anchor is currently performed by estimating the
cardinality of the anchor (number of nodes/edges).  Database statistics are
used if available; otherwise schema hints are used." (§5.1)

The estimator asks the store for live per-class counts when it has a store,
falling back to the ``expected_count`` hints on schema classes.  Predicate
selectivities follow the classic System-R defaults: equality on the unique
``id`` pins cardinality to one, equality on ``name`` is treated as
near-unique, other equalities divide by ten, and inequalities keep a third.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.rpe.ast import Atom
from repro.schema.classes import ElementClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.base import GraphStore, TimeScope

def _scope_key(scope: "TimeScope | None") -> tuple | None:
    """Cache key fragment for a time scope (None for the current snapshot)."""
    if scope is None or scope.is_current:
        return None
    return (scope.kind, scope.start, scope.end)


#: Cached (class, scope) counts per estimator.  Keys carry exact ``AT``
#: timestamps, so a read-only server would otherwise keep one entry per
#: distinct timestamp its clients ever send.
CLASS_COUNT_CACHE_SIZE = 512

_DEFAULT_CLASS_COUNT = 1000.0
_EQ_NAME_SELECTIVITY = 1e-6  # names are near-unique in inventories
_EQ_SELECTIVITY = 0.1
_RANGE_SELECTIVITY = 1.0 / 3.0
_NEQ_SELECTIVITY = 2.0 / 3.0


class CardinalityEstimator:
    """Estimates the number of elements satisfying an atom.

    The estimator carries a monotonic *statistics epoch*: it advances
    whenever the cached per-class counts are dropped, either explicitly
    via :meth:`invalidate` or automatically when the backing store's
    ``data_version`` drifts past the version last sampled.  The plan
    cache keys compiled programs on the epoch, so plans chosen under
    stale statistics are replanned — a correctness-neutral refresh, since
    statistics only steer anchor *choice* (§5.1), never result sets.
    """

    def __init__(self, store: "GraphStore | None" = None):
        from repro.plan.cache import LruCache  # repro.plan imports this module

        self._store = store
        self._class_count_cache = LruCache(CLASS_COUNT_CACHE_SIZE)
        self._epoch = 0
        self._seen_data_version = store.data_version if store is not None else 0

    @property
    def stats_epoch(self) -> int:
        """The current statistics epoch (refreshes against the store)."""
        self._refresh()
        return self._epoch

    def _refresh(self) -> None:
        if self._store is None:
            return
        version = self._store.data_version
        if version != self._seen_data_version:
            self._seen_data_version = version
            self._bump()

    def _bump(self) -> None:
        self._class_count_cache.clear()
        self._epoch += 1

    def class_cardinality(
        self, cls: ElementClass, scope: "TimeScope | None" = None
    ) -> float:
        self._refresh()
        cache_key = (cls.name, _scope_key(scope))
        cached = self._class_count_cache.get(cache_key)
        if cached is not None:
            return cached
        count: float | None = None
        exact = False
        if self._store is not None:
            if scope is None or scope.is_current:
                count = float(self._store.class_count(cls.name))
            else:
                # Historical anchors are costed with what existed *then*;
                # backends without temporal counts answer None and fall
                # through to the current count.  A temporal count is exact
                # even when zero — "nothing existed" is real information,
                # not missing statistics.
                historical = self._store.class_count_at(cls.name, scope)
                if historical is not None:
                    count = float(historical)
                    exact = True
                else:
                    count = float(self._store.class_count(cls.name))
        if not exact and (count is None or count == 0.0):
            hints = [
                float(concrete.expected_count)
                for concrete in cls.concrete_subtree()
                if concrete.expected_count is not None
            ]
            if hints:
                count = max(sum(hints), count or 0.0)
        if count is None or (count == 0.0 and not exact):
            count = _DEFAULT_CLASS_COUNT
        self._class_count_cache.put(cache_key, count)
        return count

    def estimate(self, atom: Atom, scope: "TimeScope | None" = None) -> float:
        """Expected number of elements satisfying *atom* (≥ a small epsilon)."""
        if atom.cls is None:
            return _DEFAULT_CLASS_COUNT
        cardinality = self.class_cardinality(atom.cls, scope)
        for predicate in atom.predicates:
            if predicate.name == "id" and predicate.op == "=":
                return 1.0
            if predicate.op == "=":
                if predicate.name == "name":
                    cardinality = max(cardinality * _EQ_NAME_SELECTIVITY, 1.0)
                else:
                    cardinality *= _EQ_SELECTIVITY
            elif predicate.op == "!=":
                cardinality *= _NEQ_SELECTIVITY
            else:
                cardinality *= _RANGE_SELECTIVITY
        return max(cardinality, 0.5)

    def invalidate(self) -> None:
        """Drop cached counts and advance the epoch (call after bulk loads)."""
        if self._store is not None:
            self._seen_data_version = self._store.data_version
        self._bump()
