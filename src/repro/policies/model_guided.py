"""The model-guided policy (Section 8): share only when Z(m, n) > 1.

Holds one profiled :class:`~repro.core.spec.QuerySpec` per query type
(obtained offline via :mod:`repro.profiling`, as in the paper's
Section 3.1 setup) and consults the analytical model on every arrival:
join the group only if sharing the prospective group beats independent
execution on this machine.

With a :class:`~repro.policies.resource_outlook.ResourceOutlook`
attached, the CPU-profiled specs are adjusted per decision with the
projected cold-scan I/O and spill pressure of the prospective group —
the fig_mem Part B cold/warm flip, automated: the same warm-profiled
spec says *don't share* against a warm pool and *share* against a cold
one, and with cooperative scans active the attach benefit cancels the
I/O term again.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.contention import ContentionLike
from repro.core.decision import ShareAdvisor
from repro.core.spec import QuerySpec, sharers
from repro.engine.costs import DEFAULT_COST_MODEL
from repro.errors import PolicyError
from repro.obs.audit import AuditLog
from repro.policies.base import SharingPolicy
from repro.policies.resource_outlook import ParallelProjection, ResourceOutlook

__all__ = ["ModelGuidedPolicy"]


class ModelGuidedPolicy(SharingPolicy):
    """Decides via the Section-4 model on profiled query specs.

    Parameters
    ----------
    specs:
        ``query_name -> (QuerySpec, pivot operator name)`` from the
        profiler.
    contention:
        Optional hardware contention spec for the advisor.
    threshold:
        Minimum predicted Z to share. The default demands a 25%
        predicted win rather than any win: the Section-4 model prices
        rates at steady state but not the *batching delay* a runtime
        merge discipline imposes (an arriving query waits for the
        active group to drain before its batch starts), so marginal
        predicted wins lose in practice. The margin absorbs that
        unmodeled cost.
    outlook:
        Optional :class:`~repro.policies.resource_outlook.ResourceOutlook`
        feeding projected I/O and spill effects into each decision.
        Decisions are no longer cached when an outlook is attached —
        residency and memory pressure change between arrivals.
    audit:
        Optional :class:`~repro.obs.audit.AuditLog`; when attached,
        every fresh verdict (cache hits excluded) appends a
        ``source="policy"`` record with the model's projected rates
        and Z-score.
    """

    name = "model"

    def __init__(
        self,
        specs: Mapping[str, tuple[QuerySpec, str]],
        contention: ContentionLike = None,
        threshold: float = 1.25,
        outlook: Optional[ResourceOutlook] = None,
        audit: Optional["AuditLog"] = None,
    ) -> None:
        if not specs:
            raise PolicyError("model-guided policy needs at least one spec")
        self.specs = dict(specs)
        self.contention = contention
        self.threshold = threshold
        self.outlook = outlook
        self.audit = audit
        self._decision_cache: dict[tuple[str, int, int], bool] = {}

    def should_share(self, query_name: str, prospective_size: int,
                     processors: int) -> bool:
        if prospective_size < 2:
            return False
        key = (query_name, prospective_size, processors)
        if self.outlook is None:
            cached = self._decision_cache.get(key)
            if cached is not None:
                return cached
        try:
            spec, pivot = self.specs[query_name]
        except KeyError:
            raise PolicyError(
                f"no model spec for query {query_name!r}; "
                f"have {sorted(self.specs)}"
            ) from None
        if self.outlook is not None:
            spec = self.outlook.adjusted_spec(
                query_name, spec, pivot, prospective_size
            )
        advisor = ShareAdvisor(
            processors=processors,
            contention=self.contention,
            threshold=self.threshold,
        )
        decision = advisor.evaluate(
            sharers(spec, prospective_size, query_name), pivot
        )
        if self.audit is not None:
            self.audit.append(
                query=query_name,
                signature=query_name,
                group_size=prospective_size,
                source="policy",
                outcome="share" if decision.share else "solo",
                projected_z=decision.benefit,
                projected_shared_rate=decision.shared_rate,
                projected_unshared_rate=decision.unshared_rate,
            )
        if self.outlook is None:
            self._decision_cache[key] = decision.share
        return decision.share

    def choose_mode(
        self,
        query_name: str,
        prospective_size: int,
        processors: int,
        dop: int,
        partition_skew: float = 1.0,
    ) -> "ParallelProjection":
        """Share, parallelize, both, or neither — the four-way verdict.

        Evaluates the Section-4 rates for the prospective group (with
        the outlook's resource adjustment, when attached), then asks
        the outlook's :meth:`~repro.policies.resource_outlook
        .ResourceOutlook.share_vs_parallelize` projection to price all
        four arms: m solo serial queries, one shared group, m solo
        queries each at ``dop``-way intra-query parallelism, and the
        Section 8.1 several-shared-groups arrangement. Appends one
        audit record per verdict when an :class:`~repro.obs.audit
        .AuditLog` is attached (``outcome`` = the chosen mode).
        """
        try:
            spec, pivot = self.specs[query_name]
        except KeyError:
            raise PolicyError(
                f"no model spec for query {query_name!r}; "
                f"have {sorted(self.specs)}"
            ) from None
        outlook = self.outlook
        if outlook is not None:
            spec = outlook.adjusted_spec(
                query_name, spec, pivot, prospective_size
            )
        else:
            outlook = ResourceOutlook({}, costs=DEFAULT_COST_MODEL)
        advisor = ShareAdvisor(
            processors=processors,
            contention=self.contention,
            threshold=self.threshold,
        )
        decision = advisor.evaluate(
            sharers(spec, prospective_size, query_name), pivot
        )
        projection = outlook.share_vs_parallelize(
            query_name,
            prospective_size,
            processors,
            dop,
            shared_rate=decision.shared_rate,
            unshared_rate=decision.unshared_rate,
            contention=self.contention,
            partition_skew=partition_skew,
            spec=spec,
            pivot_name=pivot,
        )
        if self.audit is not None:
            self.audit.append(
                query=query_name,
                signature=query_name,
                group_size=prospective_size,
                source="policy",
                outcome=projection.mode,
                projected_z=decision.benefit,
                projected_shared_rate=decision.shared_rate,
                projected_unshared_rate=decision.unshared_rate,
            )
        return projection
