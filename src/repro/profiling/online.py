"""Online model parameter estimation.

The paper estimates parameters offline but notes: "because parameter
estimation is straightforward we anticipate no significant barriers to
online estimation" (Section 3.1). This module removes the offline
step: an :class:`OnlineEstimator` ingests the stage busy times of
every completed group *during normal operation* and maintains a
rolling least-squares fit, so the sharing model adapts to the live
workload with no profiling pass.

Identification still requires the pivot to be observed at two or more
distinct consumer counts (otherwise ``w`` and ``s`` cannot be
separated); cold-started estimators therefore report ``ready() ==
False`` until at least one shared and one unshared execution have been
seen, and the policy layer funds a small *exploration budget* of
shared groups to gather that evidence — or a prior offline profile can
seed the estimator directly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.estimation import Observation, estimate_many
from repro.core.spec import QuerySpec
from repro.engine.plan import PlanNode
from repro.errors import EstimationError
from repro.profiling.profiler import QueryProfile, observations_from_tasks, spec_from_estimates

__all__ = ["OnlineEstimator"]


class OnlineEstimator:
    """Rolling per-operator parameter estimates for one query type.

    Parameters
    ----------
    plan / pivot_op_id / label:
        The query type being modeled.
    window:
        Observations retained per operator (rolling window, so the
        estimates track workload drift).
    prior:
        Optional offline :class:`~repro.profiling.QueryProfile` whose
        estimates seed the window (reconstructed as synthetic
        observations at one and two consumers, which the least-squares
        fit inverts exactly).
    """

    def __init__(
        self,
        plan: PlanNode,
        pivot_op_id: str,
        label: str = "query",
        window: int = 32,
        prior: Optional[QueryProfile] = None,
    ) -> None:
        if window < 2:
            raise EstimationError(f"window must be >= 2, got {window}")
        plan.find(pivot_op_id)
        self.plan = plan
        self.pivot_op_id = pivot_op_id
        self.label = label
        self.window = window
        # One rolling window per (operator, consumer count): shared
        # executions are rare relative to solo ones in a live system,
        # and a single shared window would let the flood of
        # single-consumer observations evict the multi-consumer
        # evidence that identifies the pivot's s.
        self._samples: dict[tuple[str, int], Deque[Observation]] = {}
        self.groups_observed = 0
        self.shared_groups_observed = 0
        if prior is not None:
            self._seed_from(prior)

    # ------------------------------------------------------------------

    def _seed_from(self, prior: QueryProfile) -> None:
        for node in self.plan.walk():
            estimate = prior.estimates.get(node.op_id)
            if estimate is None:
                continue
            for consumers in (1, 2):
                self._bucket(node.op_id, consumers).append(
                    Observation(
                        busy_time=estimate.work + estimate.output_cost * consumers,
                        units=1.0,
                        consumers=consumers,
                    )
                )
        self.shared_groups_observed += 1
        self.groups_observed += 2

    def _bucket(self, op_id: str, consumers: int) -> Deque[Observation]:
        key = (op_id, consumers)
        bucket = self._samples.get(key)
        if bucket is None:
            bucket = deque(maxlen=self.window)
            self._samples[key] = bucket
        return bucket

    def _observed_ops(self) -> set[str]:
        return {op_id for op_id, _ in self._samples}

    def _pivot_consumer_counts(self) -> set[int]:
        return {consumers for op_id, consumers in self._samples if op_id == self.pivot_op_id}

    # ------------------------------------------------------------------

    def observe_group(self, group_size: int, tasks) -> None:
        """Fold one completed group's stage tasks into the window."""
        if group_size < 1:
            raise EstimationError(f"group_size must be >= 1, got {group_size}")
        for op_id, obs in observations_from_tasks(self.plan, self.pivot_op_id, group_size, tasks):
            self._bucket(op_id, obs.consumers).append(obs)
        self.groups_observed += 1
        if group_size > 1:
            self.shared_groups_observed += 1

    def ready(self) -> bool:
        """True once the pivot's ``w`` and ``s`` are identifiable:
        every operator observed, and the pivot at >= 2 distinct
        consumer counts."""
        plan_ops = {node.op_id for node in self.plan.walk()}
        if not plan_ops <= self._observed_ops():
            return False
        return len(self._pivot_consumer_counts()) >= 2

    def current_spec(self) -> QuerySpec:
        """The model-level plan with the current rolling estimates."""
        if not self.ready():
            raise EstimationError(
                f"online estimator for {self.label!r} is not ready; "
                f"observed {self.groups_observed} group(s), "
                f"{self.shared_groups_observed} shared"
            )
        estimates = estimate_many(
            (op_id, obs) for (op_id, _), bucket in self._samples.items() for obs in bucket
        )
        return spec_from_estimates(self.plan, estimates.__getitem__, self.label)
