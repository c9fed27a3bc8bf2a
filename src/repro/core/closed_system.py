"""Open- vs closed-system treatment of mismatched rates (Section 5.1).

The base model assumes every query in a group has the same peak rate.
When rates differ, unshared execution is no longer uniform over time —
fast queries finish and leave. The paper distinguishes:

**Open systems** — arrivals are independent of response times, so
throttling everyone to the slowest query's rate is equivalent to
letting fast queries finish early and idle. The Section 4.2 equations
stand unchanged; :func:`repro.core.model.unshared_rate` already
implements this.

**Closed systems** — a completed query is immediately replaced
(Little's law: ``X = N / R``), so per-query response time directly
controls throughput. The paper's crude approximation assumes a similar
query replaces each one on completion, and modifies the unshared
estimate so that

* the aggregate rate reflects the *harmonic mean* of the group's peak
  throughputs: ``r_unshared = |M| * HM(r_m) = |M|^2 / sum_m p_max(m)``,
* each query is throttled only by its own ``p_max`` when computing
  utilization: ``u_unshared = sum_m u'_m / p_max(m)``.

For groups of identical queries these reduce exactly to Section 4.2.
Shared execution needs no correction: the pivot already throttles the
group to one rate.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import metrics
from repro.core.contention import ContentionLike, resolve
from repro.core.spec import QuerySpec
from repro.errors import SpecError

__all__ = [
    "unshared_rate_closed",
    "closed_peak_rate",
    "closed_utilization",
]


def closed_peak_rate(queries: Sequence[QuerySpec]) -> float:
    """Aggregate peak rate under the closed-system approximation.

    ``|M| * harmonic_mean(1 / p_max(m)) = |M|^2 / sum_m p_max(m)``;
    faster queries raise the aggregate because their replacements keep
    arriving, but slow queries drag the mean down harmonically.
    """
    if not queries:
        raise SpecError("query group must contain at least one query")
    runs = metrics.twin_runs(queries)
    return len(queries) ** 2 / sum(metrics.per_member(runs, metrics.p_max))


def closed_utilization(queries: Sequence[QuerySpec]) -> float:
    """``u_unshared = sum_m u'_m / p_max(m)`` — each query throttled
    only by its own bottleneck (it uses its full resource allotment
    until the last query completes)."""
    if not queries:
        raise SpecError("query group must contain at least one query")
    runs = metrics.twin_runs(queries)
    return sum(
        metrics.per_member(
            runs, lambda q: metrics.total_work(q) / metrics.p_max(q)
        )
    )


def unshared_rate_closed(
    queries: Sequence[QuerySpec],
    n: float,
    contention: ContentionLike = None,
) -> float:
    """Closed-system unshared aggregate rate, ``x_unshared(M, n)``.

    ``x = r_closed * min(1, n_eff / u_closed)``. For identical queries
    this equals :func:`repro.core.model.unshared_rate` exactly; the two
    estimates diverge only for mismatched peak rates, where the closed
    variant is the better basis for binary share/don't-share decisions
    (Section 5.1).
    """
    for query, _ in metrics.twin_runs(queries):
        query.require_pipelined("closed-system model")
    n_eff = resolve(contention).effective(n)
    rate = closed_peak_rate(queries)
    util = closed_utilization(queries)
    return rate * min(1.0, n_eff / util)
