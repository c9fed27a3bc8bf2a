"""Model parameter extraction from engine runs (Section 3.1).

"We build a model for each query type by profiling the system during a
few test query invocations, both with and without work sharing. We
then solve a system of linear equations to divide up the active time
of each operator among the different nodes of the query plan."

:class:`QueryProfiler` does exactly that against the staged engine:

1. run the query once unshared and once per requested sharer count
   (shared at the query's pivot), on a dedicated simulator;
2. record each stage task's *busy time* per run. One run completes one
   unit of forward progress per member, so below-pivot stages (which
   execute once per group pass) yield per-query-normalized
   observations directly, while above-pivot stages (one instance per
   member) are averaged over members;
3. feed the observations to the least-squares solver of
   :mod:`repro.core.estimation`; varying the pivot's consumer count
   across runs separates its ``w`` from its ``s``;
4. assemble a model-level :class:`~repro.core.spec.QuerySpec` mirroring
   the plan tree, ready for :class:`~repro.core.decision.ShareAdvisor`.

Busy time in the simulator equals work charged (with ``kappa = 1``),
so profiles are independent of the processor count used for
profiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.core.estimation import Observation, OperatorEstimate, estimate_many
from repro.core.spec import OperatorSpec, QuerySpec
from repro.engine.costs import DEFAULT_COST_MODEL, CostModel
from repro.engine.engine import Engine
from repro.engine.plan import PlanNode
from repro.errors import EstimationError
from repro.sim.simulator import Simulator
from repro.storage.catalog import Catalog
from repro.storage.page import DEFAULT_PAGE_ROWS

__all__ = [
    "QueryProfile",
    "QueryProfiler",
    "observations_from_tasks",
]


def observations_from_tasks(
    plan: PlanNode,
    pivot_op_id: str,
    m: int,
    tasks,
) -> list[tuple[str, Observation]]:
    """Turn one group run's stage tasks into estimator observations.

    One run completes one unit of forward progress per member:
    stages at/below the pivot execute once per group pass (the pivot
    feeding ``m`` consumers), stages above it once per member. Each
    task counts under its ``Task.op_id``; sinks and hand-spawned tasks
    have none and are skipped.
    """
    pivot = plan.find(pivot_op_id)
    shared_ids = {node.op_id for node in pivot.walk()}

    busy_by_op: dict[str, float] = {}
    instances: dict[str, int] = {}
    for task in tasks:
        op_id = task.op_id
        if op_id is None:
            continue
        busy_by_op[op_id] = busy_by_op.get(op_id, 0.0) + task.busy_time
        instances[op_id] = instances.get(op_id, 0) + 1

    samples: list[tuple[str, Observation]] = []
    for op_id, busy in busy_by_op.items():
        if op_id in shared_ids:
            consumers = m if op_id == pivot_op_id else 1
            samples.append((op_id, Observation(busy_time=busy, units=1.0, consumers=consumers)))
        else:
            count = instances[op_id]
            samples.append((op_id, Observation(busy_time=busy / count, units=1.0, consumers=1)))
    return samples


def spec_from_estimates(
    plan: PlanNode,
    estimate_of: Callable[[str], OperatorEstimate],
    label: str,
    mark_blocking: bool = False,
) -> QuerySpec:
    """Mirror ``plan`` as a model-level :class:`QuerySpec`.

    Each operator takes the ``w``/``s`` that ``estimate_of(op_id)``
    returns; with ``mark_blocking`` the plan's aggregates and sorts
    are flagged as stop-&-go operators.
    """

    def convert(node: PlanNode) -> OperatorSpec:
        estimate = estimate_of(node.op_id)
        return OperatorSpec(
            name=node.op_id,
            work=estimate.work,
            output_cost=estimate.output_cost,
            children=tuple(convert(child) for child in node.children),
            blocking=mark_blocking and node.kind in ("aggregate", "sort"),
        )

    return QuerySpec(root=convert(plan), label=label)


@dataclass(frozen=True)
class QueryProfile:
    """Fitted per-operator parameters for one query type."""

    label: str
    pivot_op_id: str
    estimates: Mapping[str, OperatorEstimate]
    plan: PlanNode

    def operator(self, op_id: str) -> OperatorEstimate:
        try:
            return self.estimates[op_id]
        except KeyError:
            raise EstimationError(
                f"no profile for operator {op_id!r}; have {sorted(self.estimates)}"
            ) from None

    def to_query_spec(
        self,
        label: Optional[str] = None,
        mark_blocking: bool = False,
    ) -> QuerySpec:
        """Build the model-level plan with the fitted ``w``/``s``.

        Non-pivot operators fold their (constant, single-consumer)
        output cost into ``w``; the pivot keeps its fitted per-consumer
        ``s`` — exactly the information the sharing model needs.

        With ``mark_blocking=True`` the stop-&-go operators of the plan
        (aggregates and sorts) are flagged as blocking, so the spec can
        be wrapped in :class:`~repro.core.phases.PhasedQuery` for the
        Section 5.2 phase-aware predictions. Their measured busy time
        is attributed to the consume side (emit volumes are small for
        aggregation trees); the simple fully-pipelined form — the one
        the paper validates — remains the default.
        """
        return spec_from_estimates(self.plan, self.operator, label or self.label, mark_blocking)


class QueryProfiler:
    """Profiles queries on dedicated simulator instances."""

    def __init__(
        self,
        catalog: Catalog,
        costs: CostModel = DEFAULT_COST_MODEL,
        page_rows: int = DEFAULT_PAGE_ROWS,
        queue_capacity: int = 4,
        processors: int = 8,
    ) -> None:
        self.catalog = catalog
        self.costs = costs
        self.page_rows = page_rows
        self.queue_capacity = queue_capacity
        self.processors = processors

    def profile(
        self,
        plan: PlanNode,
        pivot_op_id: str,
        label: str = "query",
        sharer_counts: Sequence[int] = (1, 2, 4),
    ) -> QueryProfile:
        """Run the profiling invocations and fit all operators."""
        if not sharer_counts:
            raise EstimationError("need at least one sharer count")
        if min(sharer_counts) < 1:
            raise EstimationError(f"invalid sharer counts {sharer_counts!r}")
        plan.find(pivot_op_id)  # validate early

        samples: list[tuple[str, Observation]] = []
        for m in sharer_counts:
            samples.extend(self._run_once(plan, pivot_op_id, m))
        return QueryProfile(
            label=label,
            pivot_op_id=pivot_op_id,
            estimates=estimate_many(samples),
            plan=plan,
        )

    # ------------------------------------------------------------------

    def _run_once(self, plan: PlanNode, pivot_op_id: str, m: int) -> list[tuple[str, Observation]]:
        sim = Simulator(processors=self.processors)
        engine = Engine(
            self.catalog,
            sim,
            costs=self.costs,
            page_rows=self.page_rows,
            queue_capacity=self.queue_capacity,
        )
        if m == 1:
            engine.execute(plan, "prof#0")
        else:
            engine.execute_group(
                [plan] * m,
                pivot_op_id=pivot_op_id,
                labels=[f"prof#{i}" for i in range(m)],
            )
        sim.run()
        return observations_from_tasks(plan, pivot_op_id, m, sim.tasks)
