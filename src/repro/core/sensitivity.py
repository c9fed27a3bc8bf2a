"""Sensitivity analysis of the sharing trade-off (Section 6).

The paper sweeps three parameters of a baseline three-stage query
(Figure 3: bottom ``p = 10``, pivot ``w = 6, s = 1``, top ``p = 10``)
and reports predicted speedup curves:

* available processing power *n* (Figure 4 left),
* the pivot's per-consumer output cost *s* (Figure 4 center),
* the fraction of work eliminated by sharing, varied by moving stages
  below the pivot (Figure 4 right).

Each sweep returns a :class:`SweepResult` whose ``series`` maps the
swept value to the list of ``Z(m, n)`` over the client counts, i.e.
exactly the lines of the corresponding figure panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core import metrics
from repro.core.contention import ContentionLike
from repro.core.model import sharing_benefit
from repro.core.spec import QuerySpec, chain, op, sharers
from repro.errors import SpecError

__all__ = [
    "SweepResult",
    "baseline_query",
    "staged_query",
    "sweep_processors",
    "sweep_output_cost",
    "sweep_work_below_pivot",
    "work_eliminated_fraction",
]

DEFAULT_CLIENTS = tuple(range(1, 41))


@dataclass(frozen=True)
class SweepResult:
    """One panel of Figure 4.

    ``series[value][i]`` is the predicted ``Z`` for ``clients[i]`` at
    the swept parameter ``value``.
    """

    parameter: str
    clients: tuple[int, ...]
    series: Mapping[float, tuple[float, ...]]
    pivot: str

    def best_client_count(self, value: float) -> int:
        """Client count maximizing Z for the given parameter value."""
        row = self.series[value]
        return self.clients[max(range(len(row)), key=row.__getitem__)]

    def ever_beneficial(self, value: float) -> bool:
        """True if sharing wins (Z > 1) for any swept client count."""
        return any(z > 1.0 for z in self.series[value])


def baseline_query(
    bottom_p: float = 10.0,
    pivot_work: float = 6.0,
    pivot_output_cost: float = 1.0,
    top_p: float = 10.0,
    label: str = "baseline",
) -> QuerySpec:
    """The Section-6 baseline: three stages, sharing at the middle one.

    Work sharing at the pivot eliminates the bottom stage plus the
    pivot's own input-side work — "nearly 60% of the work" for the
    default parameters.
    """
    root = chain(
        op("bottom", bottom_p),
        op("pivot", pivot_work, pivot_output_cost),
        op("top", top_p),
    )
    return QuerySpec(root=root, label=label)


def staged_query(
    stages_below_pivot: int,
    total_stages: int = 5,
    stage_p: float = 8.0,
    bottom_p: float = 10.0,
    pivot_work: float = 6.0,
    pivot_output_cost: float = 1.0,
    label: str | None = None,
) -> QuerySpec:
    """The Figure 4 (right) variant: the top operator split into five
    balanced ``p = 8`` stages, with ``stages_below_pivot`` of them
    moved below the pivot to increase the work sharing eliminates."""
    if not (0 <= stages_below_pivot <= total_stages):
        raise SpecError(
            f"stages_below_pivot must be in [0, {total_stages}], "
            f"got {stages_below_pivot}"
        )
    nodes = [op("bottom", bottom_p)]
    for i in range(stages_below_pivot):
        nodes.append(op(f"below{i}", stage_p))
    nodes.append(op("pivot", pivot_work, pivot_output_cost))
    for i in range(total_stages - stages_below_pivot):
        nodes.append(op(f"above{i}", stage_p))
    return QuerySpec(
        root=chain(*nodes),
        label=label or f"staged[{stages_below_pivot}/{total_stages}]",
    )


def work_eliminated_fraction(query: QuerySpec, pivot_name: str) -> float:
    """Fraction of a query's total work that sharing with one other
    identical query eliminates: everything below the pivot plus the
    pivot's input-side work (its output must still be multiplexed)."""
    below = sum(node.p(1) for node in query.below(pivot_name))
    pivot = query.pivot(pivot_name)
    total = metrics.total_work(query)
    return (below + pivot.work) / total


def _benefit_row(
    query: QuerySpec,
    pivot: str,
    clients: Sequence[int],
    n: float,
    contention: ContentionLike,
) -> tuple[float, ...]:
    row = []
    for m in clients:
        row.append(sharing_benefit(sharers(query, m), pivot, n, contention))
    return tuple(row)


def sweep_processors(
    query: QuerySpec | None = None,
    pivot: str = "pivot",
    processor_counts: Sequence[float] = (1, 4, 8, 12, 16, 24, 32),
    clients: Sequence[int] = DEFAULT_CLIENTS,
    contention: ContentionLike = None,
) -> SweepResult:
    """Figure 4 (left): Z vs. clients for each processor count."""
    query = query or baseline_query()
    series = {
        float(n): _benefit_row(query, pivot, clients, n, contention)
        for n in processor_counts
    }
    return SweepResult(
        parameter="processors",
        clients=tuple(clients),
        series=series,
        pivot=pivot,
    )


def sweep_output_cost(
    output_costs: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0),
    n: float = 32,
    clients: Sequence[int] = DEFAULT_CLIENTS,
    contention: ContentionLike = None,
) -> SweepResult:
    """Figure 4 (center): Z vs. clients as the pivot's *s* varies, on a
    32-core system by default."""
    series = {}
    for s in output_costs:
        query = baseline_query(pivot_output_cost=s, label=f"baseline[s={s}]")
        series[float(s)] = _benefit_row(query, "pivot", clients, n, contention)
    return SweepResult(
        parameter="output_cost",
        clients=tuple(clients),
        series=series,
        pivot="pivot",
    )


def sweep_work_below_pivot(
    n: float = 8,
    total_stages: int = 5,
    clients: Sequence[int] = DEFAULT_CLIENTS,
    contention: ContentionLike = None,
) -> SweepResult:
    """Figure 4 (right): Z vs. clients as stages move below the pivot.

    The swept key is the number of stages below the pivot (0..5); use
    :func:`work_eliminated_fraction` to translate to the percentage
    labels of the figure (28%...98%).
    """
    series = {}
    for k in range(total_stages + 1):
        query = staged_query(k, total_stages=total_stages)
        series[float(k)] = _benefit_row(query, "pivot", clients, n, contention)
    return SweepResult(
        parameter="stages_below_pivot",
        clients=tuple(clients),
        series=series,
        pivot="pivot",
    )
