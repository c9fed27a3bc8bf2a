"""Model-level join constructors (Section 5.3).

The base model captures fully pipelined operators; joins fall into
three classes with different pipelining behaviour:

* **Nested-loop join (NLJ)** — fully pipelinable; just an operator with
  two input streams, one usually far more expensive than the other
  (Section 5.3.1).
* **Merge join (MJ)** — two sort phases (stop-&-go) plus a pipelined
  merge; inputs that arrive pre-sorted skip their sort (Section 5.3.2).
* **Hash join (HJ)** — a stop-&-go build phase followed by a pipelined
  probe phase (Section 5.3.3). The *symmetric* hash join variant is
  fully pipelined and needs no decomposition: a plain two-input
  :func:`~repro.core.spec.op` node models it.

All constructors return :class:`~repro.core.spec.OperatorSpec` trees;
trees containing blocking nodes are consumed by
:func:`repro.core.phases.decompose`.
"""

from __future__ import annotations

from repro.core.spec import OperatorSpec, op
from repro.errors import SpecError

__all__ = [
    "nested_loop_join",
    "merge_join",
    "hash_join",
    "sort_operator",
]


def _check_cost(label: str, value: float) -> None:
    if value < 0:
        raise SpecError(f"{label} must be >= 0, got {value!r}")


def nested_loop_join(
    name: str,
    outer: OperatorSpec,
    inner: OperatorSpec,
    work: float,
    output_cost: float = 0.0,
) -> OperatorSpec:
    """A fully pipelinable (block) nested-loop join.

    ``work`` is the join's total per-unit input work across both
    streams; forward-progress normalization already folds the streams'
    relative costs into it.
    """
    _check_cost("work", work)
    return op(name, work, output_cost, outer, inner)


def sort_operator(
    name: str,
    child: OperatorSpec,
    run_work: float,
    merge_work: float = 0.0,
    replay_work: float = 0.0,
    output_cost: float = 0.0,
) -> OperatorSpec:
    """A stop-&-go sort: run generation, run merging, sorted replay.

    Matches the Section 5.2 example: ``run_work`` is the moderately
    slow root of the first sub-query, ``merge_work`` the
    non-interacting middle sub-query, ``replay_work`` the fast leaf of
    the final sub-query.
    """
    for label, value in (
        ("run_work", run_work),
        ("merge_work", merge_work),
        ("replay_work", replay_work),
    ):
        _check_cost(label, value)
    return op(
        name,
        run_work,
        output_cost,
        child,
        blocking=True,
        internal_work=merge_work,
        emit_work=replay_work,
    )


def merge_join(
    name: str,
    left: OperatorSpec,
    right: OperatorSpec,
    merge_work: float,
    output_cost: float = 0.0,
    left_sort: tuple[float, float, float] | None = (1.0, 0.0, 0.0),
    right_sort: tuple[float, float, float] | None = (1.0, 0.0, 0.0),
) -> OperatorSpec:
    """A merge join modeled as (up to) two sorts plus a pipelined merge.

    ``left_sort`` / ``right_sort`` are ``(run_work, merge_work,
    replay_work)`` triples for the respective sort operators, or
    ``None`` when that input is already sorted and the sort can be
    skipped entirely (Section 5.3.2).
    """
    _check_cost("merge_work", merge_work)
    if left_sort is not None:
        left = sort_operator(f"{name}_sortL", left, *left_sort)
    if right_sort is not None:
        right = sort_operator(f"{name}_sortR", right, *right_sort)
    return op(name, merge_work, output_cost, left, right)


def hash_join(
    name: str,
    build: OperatorSpec,
    probe: OperatorSpec,
    build_work: float,
    probe_work: float,
    output_cost: float = 0.0,
) -> OperatorSpec:
    """A mainstream hash join: stop-&-go build phase, pipelined probe.

    Decomposition yields one sub-query of everything below and
    including the hash build, and a second with everything above it
    (Section 5.3.3). The built table is available to the probe at no
    replay cost (``emit_work = 0``).
    """
    _check_cost("build_work", build_work)
    _check_cost("probe_work", probe_work)
    build_node = op(
        f"{name}_build",
        build_work,
        0.0,
        build,
        blocking=True,
        internal_work=0.0,
        emit_work=0.0,
    )
    return op(f"{name}_probe", probe_work, output_cost, probe, build_node)
