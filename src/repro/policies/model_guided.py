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

:func:`price_verdict` is the one decision rule every model-priced
verdict in the system goes through: this policy's, the online
policy's, and the session's built-in decider (itself an instance of
this class, see :meth:`repro.db.session.Session.decider`).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.contention import ContentionLike
from repro.core.decision import ShareAdvisor, ShareDecision
from repro.core.spec import QuerySpec, sharers
from repro.errors import PolicyError
from repro.policies.base import SharingPolicy
from repro.policies.resource_outlook import ParallelProjection, ResourceOutlook

__all__ = ["ModelGuidedPolicy", "price_verdict"]


def price_verdict(
    spec: QuerySpec,
    pivot: str,
    m: int,
    processors: float,
    *,
    threshold: float,
    contention: ContentionLike,
    outlook: Optional[ResourceOutlook],
    key: str,
    dop: int = 1,
    partition_skew: float = 1.0,
    mode_contention: ContentionLike = None,
) -> tuple[ShareDecision, Optional[ParallelProjection], dict]:
    """Price sharing ``m`` copies of ``spec`` at ``pivot`` on
    ``processors`` contexts: the Section-4 Z(m, n) against
    ``threshold``.

    With an ``outlook``, its projections for ``key`` (extra pivot I/O,
    spill pages, drift share) are taken once and the extra I/O folds
    into the pivot's ``w`` before the model runs. Z is priced under
    ``contention``; with ``dop`` > 1 the verdict is also priced four
    ways — share, parallelize, both, neither — under
    ``mode_contention`` (see
    :meth:`~repro.policies.resource_outlook.ResourceOutlook.share_vs_parallelize`).

    Returns the binary verdict, the four-way projection (``None`` at
    dop 1) and the projections the verdict was priced with (empty
    without an outlook).
    """
    projections: dict = {}
    if outlook is not None:
        projections = outlook.projections(key, m)
        spec = spec.with_extra_work(pivot, projections["projected_io_extra"])
    advisor = ShareAdvisor(processors=processors, contention=contention, threshold=threshold)
    decision = advisor.evaluate(sharers(spec, m, key), pivot)
    projection = None
    if dop > 1:
        projection = ResourceOutlook.share_vs_parallelize(
            decision,
            dop,
            contention=mode_contention,
            partition_skew=partition_skew,
            spec=spec,
            pivot_name=pivot,
        )
    return decision, projection, projections


class ModelGuidedPolicy(SharingPolicy):
    """Decides via the Section-4 model on profiled query specs.

    Parameters
    ----------
    specs:
        ``key -> (QuerySpec, pivot operator name)`` from the profiler,
        keyed by whatever the coordinator asks with (the query name).
        The mapping is read per decision, not copied, so specs added to
        it later are seen.
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
    processors:
        Price every verdict against this many contexts instead of the
        ones offered per decision (``None``, the default).
    mode_contention:
        The contention the four-way :meth:`choose_mode` projection
        prices; ``None`` (the default) uses ``contention``.
    """

    name = "model"

    def __init__(
        self,
        specs: Mapping[str, tuple[QuerySpec, str]],
        contention: ContentionLike = None,
        threshold: float = 1.25,
        outlook: Optional[ResourceOutlook] = None,
        *,
        processors: Optional[int] = None,
        mode_contention: ContentionLike = None,
    ) -> None:
        if not specs:
            raise PolicyError("model-guided policy needs at least one spec")
        self.specs = specs
        self.contention = contention
        self.threshold = threshold
        self.outlook = outlook
        self.processors = processors
        self.mode_contention = contention if mode_contention is None else mode_contention
        self._decision_cache: dict[tuple[str, int, int], ShareDecision] = {}

    def should_share(
        self, query_name: str, prospective_size: int, processors: int
    ) -> ShareDecision | bool:
        """The priced :class:`~repro.core.decision.ShareDecision` (truthy
        when sharing wins); plain ``False`` for a group of one."""
        if prospective_size < 2:
            return False
        key = (query_name, prospective_size, processors)
        if self.outlook is None:
            cached = self._decision_cache.get(key)
            if cached is not None:
                return cached
        decision = self.price(query_name, prospective_size, processors)[0]
        if self.outlook is None:
            self._decision_cache[key] = decision
        return decision

    def choose_mode(
        self,
        query_name: str,
        prospective_size: int,
        processors: int,
        dop: int,
        partition_skew: float = 1.0,
    ) -> ParallelProjection:
        """Share, parallelize, both, or neither — the four-way verdict.

        Prices the Section-4 rates for the prospective group (with the
        outlook's resource adjustment, when attached), then projects
        all four arms from them: m solo serial queries, one shared
        group, m solo queries each at ``dop``-way intra-query
        parallelism, and the Section 8.1 several-shared-groups
        arrangement. The projection carries the binary verdict it was
        priced from.
        """
        return self.price(query_name, prospective_size, processors, dop, partition_skew)[1]

    def price(
        self,
        key: str,
        m: int,
        processors: int,
        dop: int = 1,
        partition_skew: float = 1.0,
    ) -> tuple[ShareDecision, Optional[ParallelProjection], dict]:
        """:func:`price_verdict` under this policy's spec for ``key``,
        threshold, contention, outlook and processors."""
        try:
            spec, pivot = self.specs[key]
        except KeyError:
            raise PolicyError(
                f"no model spec for query {key!r}; have {sorted(self.specs)}"
            ) from None
        return price_verdict(
            spec,
            pivot,
            m,
            processors if self.processors is None else self.processors,
            threshold=self.threshold,
            contention=self.contention,
            outlook=self.outlook,
            key=key,
            dop=dop,
            partition_skew=partition_skew,
            mode_contention=self.mode_contention,
        )
