"""The work-sharing/parallelism model (Sections 4.2-4.4).

Given *m* potentially shared queries and *n* processors, the model
predicts the aggregate rate of forward progress with and without work
sharing, and their ratio

    ``Z(m, n) = x_shared(m, n) / x_unshared(m, n)``

(Section 4). ``Z > 1`` means sharing is a net win.

Unshared execution (Section 4.2) of a set *M* of identical queries:

    ``x_unshared(M, n) = |M| * min(1 / p_max, n_eff / (|M| * u'))``

Shared execution at pivot φ (Section 4.3):

  1. all replicated work below φ is eliminated (one copy runs),
  2. φ multiplexes output to all |M| consumers:
     ``p_φ(M) = w_φ + sum_m s_φm``,
  3. the slowest operator throttles every query in the group:
     ``x_shared(M, n) = |M| * min(1 / p_max(M), n_eff / u'_shared(M))``.

These functions handle fully pipelined plans; stop-&-go plans must be
decomposed first (:mod:`repro.core.phases`). Mismatched peak rates in
closed systems are handled by :mod:`repro.core.closed_system`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from repro.core import metrics
from repro.core.closed_system import unshared_rate_closed
from repro.core.contention import ContentionLike, resolve
from repro.core.spec import QuerySpec
from repro.errors import PivotError, SpecError

__all__ = [
    "SharedPlanMetrics",
    "shared_metrics",
    "unshared_rate",
    "shared_rate",
    "sharing_benefit",
    "validate_group",
]


def _check_group(queries: Sequence[QuerySpec]) -> list[tuple[QuerySpec, int]]:
    """The group's twin runs, once every plan in it is known to be
    pipelined (and there is at least one)."""
    runs = metrics.twin_runs(queries)
    if not runs:
        raise SpecError("query group must contain at least one query")
    for query, _ in runs:
        query.require_pipelined("sharing model")
    return runs


def validate_group(queries: Sequence[QuerySpec], pivot_name: str) -> None:
    """Check that a group of queries can legally share at ``pivot_name``.

    Every query must contain the pivot, the pivot's *work* must agree
    (they merge into one execution), and the subtrees below the pivot
    must be structurally identical — merged packets must request the
    same operation. Per-query output costs ``s`` at the pivot *may*
    differ (each consumer can be arbitrarily expensive to feed).

    Each run of twins is checked through its first member: the rest of
    the run is the same immutable plan, so would pass or fail with it.
    """
    runs = _check_group(queries)
    first = runs[0][0]
    reference = first.pivot(pivot_name)
    for query, _ in runs[1:]:
        candidate = query.pivot(pivot_name)
        if candidate.work != reference.work:
            raise PivotError(
                f"pivot {pivot_name!r} has mismatched work across the group: "
                f"{reference.work!r} ({first.label}) vs "
                f"{candidate.work!r} ({query.label})"
            )
        if len(candidate.children) != len(reference.children) or not all(
            a.structurally_equal(b)
            for a, b in zip(reference.children, candidate.children)
        ):
            raise PivotError(
                f"queries {first.label!r} and {query.label!r} differ below "
                f"pivot {pivot_name!r}; only identical sub-plans can be shared"
            )


@dataclass(frozen=True)
class SharedPlanMetrics:
    """Aggregate metrics of a shared execution plan (Section 4.3).

    Attributes
    ----------
    m:
        Number of sharers.
    p_pivot:
        ``w_φ + sum_m s_φm`` — the pivot's per-unit work including the
        multiplexing cost to every consumer.
    p_max:
        Bottleneck per-unit work of the whole shared plan.
    total_work:
        ``u'_shared`` — one copy of the subtree below φ, the inflated
        pivot, plus each query's private operators above φ.
    utilization:
        ``u'_shared / p_max`` — processors the shared plan can use.
    """

    m: int
    p_pivot: float
    p_max: float
    total_work: float
    utilization: float


def shared_metrics(
    queries: Sequence[QuerySpec], pivot_name: str
) -> SharedPlanMetrics:
    """Compute Section 4.3's shared-plan quantities for a query group."""
    validate_group(queries, pivot_name)
    runs = metrics.twin_runs(queries)
    reference = queries[0]
    pivot = reference.pivot(pivot_name)

    p_pivot = pivot.work + sum(
        metrics.per_member(runs, lambda q: q.pivot(pivot_name).output_cost)
    )
    p_below = [node.p(1) for node in reference.below(pivot_name)]
    p_above = list(
        chain.from_iterable(
            metrics.per_member(
                runs, lambda q: [node.p(1) for node in q.above(pivot_name)]
            )
        )
    )

    p_max_shared = max([p_pivot, *p_below, *p_above])
    total = sum(p_below) + p_pivot + sum(p_above)
    return SharedPlanMetrics(
        m=len(queries),
        p_pivot=p_pivot,
        p_max=p_max_shared,
        total_work=total,
        utilization=total / p_max_shared,
    )


def unshared_rate(
    queries: Sequence[QuerySpec],
    n: float,
    contention: ContentionLike = None,
) -> float:
    """Aggregate rate of independent execution, ``x_unshared(M, n)``.

    Section 4.2 assumes the group's queries share one peak rate; for
    mismatched rates this function applies the open-system treatment of
    Section 5.1 (everyone throttled to the slowest query), which leaves
    the Section 4.2 equations unchanged. Closed systems should use
    :func:`repro.core.closed_system.unshared_rate_closed`.
    """
    runs = _check_group(queries)
    n_eff = resolve(contention).effective(n)
    m = len(queries)
    worst_p_max = max(metrics.per_member(runs, metrics.p_max))
    total = sum(metrics.per_member(runs, metrics.total_work))
    return m * min(1.0 / worst_p_max, n_eff / total)


def shared_rate(
    queries: Sequence[QuerySpec],
    pivot_name: str,
    n: float,
    contention: ContentionLike = None,
) -> float:
    """Aggregate rate of shared execution, ``x_shared(M, n)``."""
    n_eff = resolve(contention).effective(n)
    shared = shared_metrics(queries, pivot_name)
    return shared.m * min(1.0 / shared.p_max, n_eff / shared.total_work)


def sharing_benefit(
    queries: Sequence[QuerySpec],
    pivot_name: str,
    n: float,
    contention: ContentionLike = None,
    closed_system: bool = False,
) -> float:
    """``Z(m, n)`` — the benefit of sharing the group at the pivot.

    ``Z > 1`` means work sharing is a net win; ``Z < 1`` means the
    serialization at the pivot outweighs the work saved and unshared
    execution is better (Section 4).

    With ``closed_system=True`` the unshared baseline uses the
    Section 5.1 closed-system approximation, which matters only when
    the group's peak rates differ.
    """
    shared = shared_rate(queries, pivot_name, n, contention)
    if closed_system:
        unshared = unshared_rate_closed(queries, n, contention)
    else:
        unshared = unshared_rate(queries, n, contention)
    return shared / unshared
