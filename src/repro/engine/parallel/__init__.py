"""Intra-query parallelism: exchange-partitioned operator fragments.

The package lowers a serial plan to a ``dop``-way parallel task graph
(Gamma-style): page-range scan fragments (ordinary scan operators over
:func:`~repro.engine.parallel.fragment.partition_ranges`), hash
exchanges, partition-wise joins and aggregates, and deterministic
gathers — every stage driven by the one
:func:`~repro.engine.operators.api.drive`, several queues to a port
where fragments fan in. Entry point is
:func:`~repro.engine.parallel.builder.build_parallel_query`, reached
through ``Engine.execute_group([plan], None, dop=...)`` (and
``Engine.execute(plan, label, dop=...)``, its group-of-one shorthand).
"""

from repro.engine.parallel.builder import (
    FRAGMENT_QUEUE_CAPACITY,
    build_parallel_query,
    find_region,
)
from repro.engine.parallel.exchange import (
    EXCHANGE_SALT,
    ExchangeOperator,
    GatherOperator,
    ordered_merge,
)
from repro.engine.parallel.fragment import partition_ranges

__all__ = [
    "EXCHANGE_SALT",
    "FRAGMENT_QUEUE_CAPACITY",
    "ExchangeOperator",
    "GatherOperator",
    "build_parallel_query",
    "find_region",
    "ordered_merge",
    "partition_ranges",
]
