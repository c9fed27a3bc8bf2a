"""Workload harnesses: the closed-system (Little's law) driver over the
sharing coordinator, and the query mixes both it and the open-system
:class:`repro.server.Server` draw from."""

from repro.workload.driver import ClosedSystemResult, run_closed_system
from repro.workload.mixes import WorkloadMix

__all__ = [
    "ClosedSystemResult",
    "run_closed_system",
    "WorkloadMix",
]
