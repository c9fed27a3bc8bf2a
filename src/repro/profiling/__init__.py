"""Parameter estimation against the staged engine (Section 3.1).

Profiles a few invocations with and without sharing and solves the
linear system separating each operator's ``w`` from its per-consumer
``s``; the result converts directly into the model's
:class:`~repro.core.spec.QuerySpec`.
"""

from repro.profiling.online import OnlineEstimator
from repro.profiling.profiler import (
    QueryProfile,
    QueryProfiler,
    observations_from_tasks,
)

__all__ = [
    "OnlineEstimator",
    "QueryProfile",
    "QueryProfiler",
    "observations_from_tasks",
]
