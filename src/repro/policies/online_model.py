"""Model-guided sharing with *online* parameter estimation.

The Section-8 policy, minus the offline profiling pass: every
completed group's stage busy times feed an
:class:`~repro.profiling.online.OnlineEstimator`, and decisions use
the current rolling fit. Until a query type's pivot has been observed
both shared and unshared (the identifiability requirement), the policy
spends a small *exploration budget* of shared groups to gather the
missing evidence — after which it behaves like the offline
model-guided policy, but adapts if the workload drifts.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.contention import ContentionLike
from repro.core.decision import ShareDecision
from repro.errors import PolicyError
from repro.policies.base import SharingPolicy
from repro.policies.model_guided import price_verdict
from repro.policies.resource_outlook import ResourceOutlook
from repro.profiling.online import OnlineEstimator
from repro.profiling.profiler import QueryProfile
from repro.tpch.queries import TpchQuery

__all__ = ["OnlineModelGuidedPolicy"]


class OnlineModelGuidedPolicy(SharingPolicy):
    """Learn the sharing model from live executions.

    Parameters
    ----------
    queries:
        ``query_name -> TpchQuery`` for every type the workload can
        submit (the estimator needs the plan tree and pivot).
    exploration_budget:
        Shared groups to allow per query type while its estimator
        cannot yet separate ``w`` from ``s``. Zero disables
        exploration (the policy then never shares a cold query type
        unless a prior is supplied).
    priors:
        Optional offline profiles seeding the estimators.
    threshold / contention:
        As in :class:`~repro.policies.model_guided.ModelGuidedPolicy`.
    outlook:
        Optional :class:`~repro.policies.resource_outlook.ResourceOutlook`;
        the live-estimated spec is adjusted with projected cold-scan
        I/O and spill pressure before each decision, exactly as in the
        offline policy.
    """

    name = "online-model"

    def __init__(
        self,
        queries: Mapping[str, TpchQuery],
        exploration_budget: int = 2,
        priors: Mapping[str, QueryProfile] | None = None,
        contention: ContentionLike = None,
        threshold: float = 1.25,
        window: int = 32,
        outlook: ResourceOutlook | None = None,
    ) -> None:
        if not queries:
            raise PolicyError("online policy needs at least one query type")
        if exploration_budget < 0:
            raise PolicyError(f"exploration_budget must be >= 0, got {exploration_budget}")
        priors = priors or {}
        self.estimators: dict[str, OnlineEstimator] = {
            name: OnlineEstimator(
                query.plan,
                query.pivot,
                label=name,
                window=window,
                prior=priors.get(name),
            )
            for name, query in queries.items()
        }
        self._pivots = {name: q.pivot for name, q in queries.items()}
        self._exploration_left = {name: exploration_budget for name in queries}
        self.contention = contention
        self.threshold = threshold
        self.outlook = outlook
        self.exploration_shares = 0

    # ------------------------------------------------------------------

    def should_share(
        self, query_name: str, prospective_size: int, processors: int
    ) -> ShareDecision | bool:
        """Plain ``True`` while spending the exploration budget on a
        query type not yet identifiable (``False`` once it is spent);
        after that the priced :class:`~repro.core.decision.ShareDecision`."""
        if prospective_size < 2:
            return False
        estimator = self._estimator(query_name)
        if not estimator.ready():
            if self._exploration_left[query_name] > 0:
                self.exploration_shares += 1
                return True
            return False
        decision, _, _ = price_verdict(
            estimator.current_spec(),
            self._pivots[query_name],
            prospective_size,
            processors,
            threshold=self.threshold,
            contention=self.contention,
            outlook=self.outlook,
            key=query_name,
        )
        return decision

    def observe_group(self, query_name: str, group_size: int, tasks) -> None:
        estimator = self.estimators.get(query_name)
        if estimator is None:
            return
        was_ready = estimator.ready()
        estimator.observe_group(group_size, tasks)
        if group_size > 1 and not was_ready:
            self._exploration_left[query_name] = max(0, self._exploration_left[query_name] - 1)

    # ------------------------------------------------------------------

    def _estimator(self, query_name: str) -> OnlineEstimator:
        try:
            return self.estimators[query_name]
        except KeyError:
            raise PolicyError(
                f"no estimator for query {query_name!r}; "
                f"have {sorted(self.estimators)}"
            ) from None
