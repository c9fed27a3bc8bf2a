"""The open-system service tier.

A long-running :class:`~repro.server.server.Server` over one
:class:`~repro.db.session.Session`: seeded Poisson or trace-driven
arrivals, admission control with explicit audited sheds
(:mod:`repro.server.admission`), dispatch — mid-flight attach to
in-flight elevator groups included — through the session's own
:class:`~repro.policies.coordinator.SharingCoordinator` (the one
``Session.run_all`` drains; the server builds no second one),
per-tenant buffer-pool quotas, and deterministic open-system
reporting (goodput, p50/p99 response time —
:mod:`repro.server.stats`).
"""

from repro.server.admission import (
    AdmissionPolicy,
    AdmissionView,
    AdmitAll,
    LatencyBound,
    QueueDepthBound,
)
from repro.server.server import (
    Arrival,
    ServedQuery,
    Server,
    ServerReport,
    TenantReport,
    poisson_arrivals,
)
from repro.server.stats import LatencyStats

__all__ = [
    "AdmissionPolicy",
    "AdmissionView",
    "AdmitAll",
    "LatencyBound",
    "QueueDepthBound",
    "Arrival",
    "LatencyStats",
    "ServedQuery",
    "Server",
    "ServerReport",
    "TenantReport",
    "poisson_arrivals",
]
