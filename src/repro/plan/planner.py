"""The RPE planner (Section 5.1).

Pipeline: parse (if text) → bind to schema → normalize → reject unanchored
or unbounded expressions → enumerate and cost anchors → split the RPE around
the chosen anchor → compile forward/backward automata.

Two hooks exist for the ablation benchmarks: ``forced_anchor`` overrides
anchor selection (bench A1 measures how much a bad anchor costs) and
``max_pathway_elements`` applies the alternative length limit of §3.3 (a
constraint on the maximum pathway length instead of finite repetition
bounds).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanningError, UnanchoredQueryError, UnboundedQueryError
from repro.plan.cache import LruCache
from repro.plan.program import CompiledSplit, MatchProgram
from repro.rpe.anchors import AnchorPlan, enumerate_anchor_plans
from repro.rpe.ast import RpeNode
from repro.rpe.match import compile_matcher
from repro.rpe.nfa import PathwayNfa, build_nfa, reverse_rpe
from repro.rpe.normalize import admits_empty, length_bounds, normalize
from repro.rpe.parser import parse_rpe
from repro.schema.registry import Schema
from repro.stats.cardinality import CardinalityEstimator
from repro.storage.base import TimeScope

#: Anchors costlier than this are considered "not small" (§3.3); queries whose
#: best anchor exceeds it are still executed, but explain() flags them.
DEFAULT_ANCHOR_BUDGET = 10_000.0


@dataclass(frozen=True)
class PlannerOptions:
    """Knobs for planning; defaults reproduce the paper's behaviour."""

    max_pathway_elements: int | None = None
    forced_anchor: str | None = None
    """Class name whose atom must be used as the anchor (ablation A1)."""

    anchor_budget: float = DEFAULT_ANCHOR_BUDGET
    import_threshold: float = 200.0
    """Anchor cardinality above which the executor prefers importing the
    anchor from an equality join with an already-evaluated variable (§3.3:
    "In join queries, an anchor can be imported from a joined path")."""

    batch_enabled: bool = True
    """Ablation switch for the vectorized execution layer.  ``NepalDB``
    propagates it onto every attached store that has a batch engine; with
    it off, operators run their row-at-a-time twins, the test oracle
    (historical anchors become the brute-force scan).  Stores expose the
    same flag for per-test toggling."""


class Planner:
    """Compiles RPEs into :class:`MatchProgram` objects."""

    def __init__(
        self,
        schema: Schema,
        estimator: CardinalityEstimator | None = None,
        options: PlannerOptions | None = None,
        nfa_memo: "LruCache | None" = None,
    ):
        self.schema = schema
        self.estimator = estimator or CardinalityEstimator()
        self.options = options or PlannerOptions()
        self._nfa_memo = nfa_memo

    def compile(
        self,
        rpe: RpeNode | str,
        bound: bool = False,
        scope: "TimeScope | None" = None,
    ) -> MatchProgram:
        """Plan the RPE; raises on unanchored/unbounded expressions.

        *scope* is the time scope the program will run under; historical
        scopes cost anchors with what existed *then* (when the backend
        keeps temporal statistics), which can flip the anchor choice.
        """
        if isinstance(rpe, str):
            rpe = parse_rpe(rpe)
        if not bound:
            rpe = rpe.bind(self.schema)
        rpe = normalize(rpe)

        low, high = length_bounds(rpe)
        limit = self.options.max_pathway_elements
        if limit is not None and low > limit:
            raise UnboundedQueryError(
                f"RPE requires at least {low} elements, above the limit of {limit}"
            )
        max_elements = min(high + 2, limit) if limit is not None else high + 2

        if admits_empty(rpe):
            raise UnanchoredQueryError(
                f"the empty pathway satisfies {rpe.render()}; such RPEs have no "
                "anchor and are likely malformed (§3.3)"
            )

        plan = self._select_anchor(rpe, scope)
        splits = []
        for split in plan.splits:
            anchor_kind = "node" if split.anchor.is_node_atom else "edge"
            forward_nfa = self._affix_nfa(split.suffix, "forward", anchor_kind)
            backward_nfa = self._affix_nfa(
                reverse_rpe(split.prefix) if split.prefix is not None else None,
                "backward",
                anchor_kind,
            )
            splits.append(
                CompiledSplit(
                    split=split, forward_nfa=forward_nfa, backward_nfa=backward_nfa
                )
            )
        splits = tuple(splits)
        return MatchProgram(
            rpe=rpe,
            anchor_plan=plan,
            splits=splits,
            matcher=compile_matcher(rpe),
            reversed_matcher=compile_matcher(reverse_rpe(rpe)),
            max_elements=max_elements,
            anchor_cost=plan.cost,
        )

    def _affix_nfa(
        self, affix: RpeNode | None, direction: str, anchor_kind: str
    ) -> "PathwayNfa":
        """Build (or reuse) the kind-refined automaton for one split affix.

        Automata depend only on the affix expression and the schema its
        atoms are bound to — not on statistics — so the memo keys on the
        schema object, its version and the rendered affix.  It survives
        stats-epoch drift, which is where replanning under churn recovers
        most of its cost.
        """

        def build() -> "PathwayNfa":
            return build_nfa(
                affix,
                leading="glue" if affix is not None else "none",
                trailing="pad",
            ).kind_refined(start_kind=anchor_kind, start_consumer="atom")

        if self._nfa_memo is None:
            return build()
        key = (
            self.schema,
            self.schema.version,
            direction,
            anchor_kind,
            affix.render() if affix is not None else None,
        )
        return self._nfa_memo.get_or_create(key, build)

    def _select_anchor(
        self, rpe: RpeNode, scope: "TimeScope | None" = None
    ) -> AnchorPlan:
        candidates = enumerate_anchor_plans(
            rpe, lambda atom: self.estimator.estimate(atom, scope)
        )
        if not candidates:
            raise UnanchoredQueryError(
                f"no anchor found for {rpe.render()}: every atom sits inside an "
                "optional repetition block"
            )
        forced = self.options.forced_anchor
        if forced is not None:
            forced_cls = self.schema.resolve(forced)
            matching = [
                plan
                for plan in candidates
                if all(split.anchor.cls is forced_cls for split in plan.splits)
            ]
            if not matching:
                raise PlanningError(
                    f"forced anchor {forced!r} does not occur in {rpe.render()}"
                )
            return min(matching, key=lambda plan: plan.cost)
        return min(candidates, key=lambda plan: plan.cost)
