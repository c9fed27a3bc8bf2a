"""Operator stages of the staged engine.

The execution protocol — :class:`~repro.engine.operators.api.StageContext`,
:class:`~repro.engine.operators.api.BatchOperator` and the
:func:`~repro.engine.operators.api.drive` loop — lives in
:mod:`repro.engine.operators.api`. Each operator module exposes:

* a :class:`~repro.engine.operators.api.BatchOperator` subclass — the
  one staged implementation (charges costs, moves batches), and
* a pure row-transformation function (``scan_rows``, ``filter_rows``,
  ``aggregate_rows``, ...) that the reference executor
  (:mod:`repro.engine.reference`) is built from: the naive answer
  oracle every staged result is checked against. The join and sort
  stages, row-wise by nature, call theirs too; the columnar scan,
  filter, project and aggregate stages share nothing with theirs.

:func:`build_operator_task` dispatches a plan node to its operator
class and wraps it in the :func:`~repro.engine.operators.api.drive`
loop.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.operators import (
    aggregate,
    filter as filter_op,
    hash_join,
    limit,
    merge_join,
    nested_loop_join,
    project,
    scan,
    sort,
)
from repro.engine.operators.api import BatchOperator, StageContext, drive
from repro.errors import PlanError
from repro.sim.queues import SimQueue

__all__ = ["StageContext", "BatchOperator", "drive", "build_operator_task"]

_OPERATORS = {
    "scan": scan.ScanOperator,
    "filter": filter_op.FilterOperator,
    "project": project.ProjectOperator,
    "aggregate": aggregate.AggregateOperator,
    "sort": sort.SortOperator,
    "limit": limit.LimitOperator,
    "hash_join": hash_join.HashJoinOperator,
    "merge_join": merge_join.MergeJoinOperator,
    "nested_loop_join": nested_loop_join.NestedLoopJoinOperator,
}


def build_operator_task(node, in_queues: Sequence[SimQueue],
                        out_queues: Sequence[SimQueue], ctx: StageContext):
    """Instantiate the stage generator for one plan node."""
    try:
        operator_cls = _OPERATORS[node.kind]
    except KeyError:
        raise PlanError(f"no stage implementation for operator kind {node.kind!r}")
    if len(in_queues) != operator_cls.ports:
        raise PlanError(
            f"{node.kind} expects {operator_cls.ports} input queue(s), "
            f"got {len(in_queues)}"
        )
    return drive(operator_cls(node, ctx, out_queues), [[queue] for queue in in_queues])
