"""Per-query pipeline metrics (Section 4.1 and Table 1).

Given a :class:`~repro.core.spec.QuerySpec` these functions compute:

``p_max``
    Work per unit of forward progress of the slowest (bottleneck)
    operator. The pipeline advances at the bottleneck's pace.

``peak_rate`` (*r*)
    ``1 / p_max`` — peak rate of forward progress (Section 4.1.2).

``total_work`` (*u'*)
    ``sum(p_k for k in plan)`` — total work per unit of forward
    progress across all operators.

``utilization`` (*u*)
    ``u' / p_max`` — maximum processor utilization of the query, i.e.
    the amount of pipeline parallelism available. Can exceed 1.

All of these assume a fully pipelined plan where every operator has
exactly one consumer (its parent, or the client for the root).

``p_max`` and ``total_work`` are read from the query's
:class:`~repro.core.spec.PlanFacts`, so each is computed once per plan
however often, and under however many labels, it is asked for.
:func:`twin_runs` and :func:`per_member` extend that to groups: the
group reductions of Sections 4.2-5.1 evaluate a per-query quantity
once per *plan* in the group and still reduce over one value per
*member*.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Iterator, Sequence, TypeVar

from repro.core.spec import OperatorSpec, QuerySpec

__all__ = [
    "operator_p",
    "p_max",
    "bottleneck",
    "peak_rate",
    "total_work",
    "utilization",
    "twin_runs",
    "per_member",
]

T = TypeVar("T")


def operator_p(node: OperatorSpec, consumers: int = 1) -> float:
    """*p* for one operator: ``w + s * consumers`` (Section 4.1.1)."""
    return node.p(consumers)


def p_max(query: QuerySpec) -> float:
    """Work per unit of forward progress at the bottleneck operator."""
    query.require_pipelined("p_max")
    return query.facts.p_max


def bottleneck(query: QuerySpec) -> OperatorSpec:
    """The operator that bounds the pipeline's rate of progress."""
    query.require_pipelined("bottleneck")
    return max(query.operators(), key=lambda node: node.p(1))


def peak_rate(query: QuerySpec) -> float:
    """*r = 1 / p_max* — peak rate of forward progress (Section 4.1.2)."""
    return 1.0 / p_max(query)


def total_work(query: QuerySpec) -> float:
    """*u'* — total work per unit of forward progress, all operators."""
    query.require_pipelined("total_work")
    return query.facts.total_work


def utilization(query: QuerySpec) -> float:
    """*u = u' / p_max* — peak processor utilization (Section 4.1.2).

    This is the number of processors the query can keep busy at its
    peak rate; values above 1 indicate available pipeline parallelism.
    """
    return total_work(query) / p_max(query)


def twin_runs(queries: Sequence[QuerySpec]) -> list[tuple[QuerySpec, int]]:
    """The group as runs of consecutive twins: ``(first member, run
    length)`` in group order. Twins (members holding one
    :class:`~repro.core.spec.PlanFacts`) are the same immutable plan
    under different labels, so whatever the model computes or checks
    for a run's first member holds for the rest of it. m sharers of
    one query are one run; a group with nothing in common is m runs of
    one."""
    runs: list[tuple[QuerySpec, int]] = []
    first, facts, length = None, None, 0
    for query in queries:
        if query.facts is facts:
            length += 1
            continue
        if length:
            runs.append((first, length))
        first, facts, length = query, query.facts, 1
    if length:
        runs.append((first, length))
    return runs


def per_member(
    runs: Sequence[tuple[QuerySpec, int]], quantity: Callable[[QuerySpec], T]
) -> Iterator[T]:
    """``quantity(q)`` for every member of the group, in group order,
    evaluated once per run.

    This is what lets a reduction over m sharers cost one evaluation:
    ``sum(per_member(runs, total_work))`` hands ``sum`` the same m
    values in the same order as ``sum(total_work(q) for q in group)``
    would. Reductions must keep that form — never ``m * x`` for the
    sum of a run: float ``sum`` is order- and count-sensitive in its
    last bit (and compensated since CPython 3.12), and those bits
    reach the audit log and the ``benefit > threshold`` test.
    """
    return chain.from_iterable(
        repeat(quantity(query), length) for query, length in runs
    )
