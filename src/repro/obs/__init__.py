"""Observability: flight-recorder tracing, unified metrics, and the
sharing advisor's decision audit trail.

Four opt-in instruments over the reproduction, all zero-cost when
detached:

* :mod:`repro.obs.trace` — :class:`Tracer`, a deterministic event
  recorder the simulator and storage components feed, exportable as
  Chrome/Perfetto ``trace_event`` JSON or a text timeline;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, one named
  counter/gauge surface over the engine's scattered counters, with
  ``snapshot()``/``delta()`` and flat-dict JSON export;
* :mod:`repro.obs.audit` — :class:`AuditLog`/:class:`AuditRecord`,
  the projected-vs-measured ledger of every share/solo routing
  decision;
* :mod:`repro.obs.perf` — :class:`WallProfiler`, the *wall-clock*
  counterpart of the tracer: per-operator host time, rows/s, and the
  simulated-work vs harness-overhead decomposition, exportable as a
  hotspot table, collapsed stacks, or speedscope/Perfetto JSON.

Enable the simulated-time instruments through the facade with
``RuntimeConfig.with_(trace=True)`` and the wall-clock profiler with
``RuntimeConfig.with_(perf=True)`` (see ``docs/observability.md``),
or attach to a hand-wired engine via :func:`attach_tracer` /
:func:`attach_profiler`.
"""

from repro.obs.audit import AuditLog, AuditRecord
from repro.obs.metrics import MetricsRegistry, stall_breakdown
from repro.obs.perf import OpProfile, WallProfiler, attach_profiler
from repro.obs.trace import (
    TID_MEMORY,
    TID_POOL,
    TID_QUEUES,
    TID_SCANS,
    TID_SPILL,
    TID_TASKS,
    TraceEvent,
    Tracer,
    attach_tracer,
    validate_chrome_trace,
)

__all__ = [
    "Tracer",
    "TraceEvent",
    "attach_tracer",
    "validate_chrome_trace",
    "MetricsRegistry",
    "stall_breakdown",
    "AuditLog",
    "AuditRecord",
    "WallProfiler",
    "OpProfile",
    "attach_profiler",
    "TID_TASKS",
    "TID_QUEUES",
    "TID_POOL",
    "TID_SCANS",
    "TID_SPILL",
    "TID_MEMORY",
]
