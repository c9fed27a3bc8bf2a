"""The Cordoba-style staged execution engine.

Queries are physical :class:`~repro.engine.plan.PlanNode` trees built
with the constructors in :mod:`repro.engine.plan`; the
:class:`~repro.engine.engine.Engine` executes them — independently or
as sharing groups merged at a pivot operator — on the discrete-event
CMP simulator, charging the :class:`~repro.engine.costs.CostModel`'s
per-tuple costs. :mod:`repro.engine.reference` provides a naive
executor for answer validation.
"""

from repro.engine.costs import (
    DEFAULT_COST_MODEL,
    IO_AWARE_COST_MODEL,
    CostModel,
)
from repro.engine.engine import Engine
from repro.engine.memory import MemoryBroker, MemoryGrant
from repro.engine.packet import GroupHandle, QueryHandle
from repro.engine.plan import (
    AggSpec,
    PlanNode,
    aggregate,
    filter_,
    hash_join,
    limit,
    merge_join,
    nested_loop_join,
    project,
    scan,
    sort,
)
from repro.engine.reference import execute_reference
from repro.storage.shared_scan import ScanShareManager
from repro.engine.stats import stage_rows

__all__ = [
    "DEFAULT_COST_MODEL",
    "IO_AWARE_COST_MODEL",
    "CostModel",
    "Engine",
    "MemoryBroker",
    "MemoryGrant",
    "GroupHandle",
    "QueryHandle",
    "AggSpec",
    "PlanNode",
    "aggregate",
    "filter_",
    "hash_join",
    "limit",
    "merge_join",
    "nested_loop_join",
    "project",
    "scan",
    "sort",
    "execute_reference",
    "ScanShareManager",
    "stage_rows",
]
