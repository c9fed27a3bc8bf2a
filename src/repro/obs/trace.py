"""The flight recorder: a deterministic event trace of one simulation.

The paper's profiling procedure (Section 3.1) starts from *seeing*
where cycles and pages go; end-state aggregates (a metrics snapshot's
``stage.*``, ``buffer.*`` and ``scan.*`` names) answer "how much" but
never "when" or "in what order". :class:`Tracer` is the missing timeline:

* the :class:`~repro.sim.simulator.Simulator` drives it at every task
  lifecycle edge — spawn, compute slice, queue block/unblock, sleep
  (throttle or think time), completion;
* storage and memory components feed discrete events into it — pool
  hit/miss/evict, spill write/read, prefetch issue/waste, elevator
  attach/detach/split/merge, throttle pauses, grant/return;
* everything is stamped with the *simulated* clock, never wall time,
  so two runs of the same plan produce **bit-identical** traces.

Cost discipline: a tracer is attached by assignment (``sim.tracer =
tracer``; components carry a ``tracer`` attribute defaulting to
``None``) and every emit site is guarded by a single ``is not None``
check — with tracing disabled the recorder costs one pointer test per
already-expensive operation and allocates nothing.

Exports: :meth:`Tracer.to_chrome` produces the Chrome/Perfetto
``trace_event`` JSON object (load it at ``chrome://tracing`` or
https://ui.perfetto.dev), :meth:`Tracer.to_json` its deterministic
serialization, and :meth:`Tracer.timeline` a plain-text timeline for
terminals. The ``repro trace`` CLI command wraps all three.

Lane layout (Chrome ``tid``): compute slices land on their processor's
lane (``cpu0`` .. ``cpuN-1``); discrete events land on per-subsystem
lanes so a Perfetto view shows CPU occupancy over storage activity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional

__all__ = [
    "TraceEvent",
    "Tracer",
    "attach_tracer",
    "TID_TASKS",
    "TID_QUEUES",
    "TID_POOL",
    "TID_SCANS",
    "TID_SPILL",
    "TID_MEMORY",
    "TID_SERVER",
]

# Perfetto lane ids for non-processor events. Processor lanes use the
# processor index directly (0 .. n-1); subsystem lanes start high
# enough that no realistic machine collides with them.
TID_TASKS = 100
TID_QUEUES = 101
TID_POOL = 102
TID_SCANS = 103
TID_SPILL = 104
TID_MEMORY = 105
TID_SERVER = 106

_LANE_NAMES = {
    TID_TASKS: "tasks",
    TID_QUEUES: "queues",
    TID_POOL: "buffer-pool",
    TID_SCANS: "elevator-scans",
    TID_SPILL: "spill",
    TID_MEMORY: "work-mem",
    TID_SERVER: "server",
}


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event, already in ``trace_event`` vocabulary.

    ``ph`` is the Chrome phase: ``"X"`` for a complete (duration)
    event, ``"i"`` for an instant. ``ts``/``dur`` are in simulated
    cost units (exported 1:1 as trace microseconds).
    """

    ts: float
    ph: str
    cat: str
    name: str
    tid: int
    dur: float = 0.0
    args: tuple = ()

    def to_chrome(self) -> dict:
        event: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": 1,
            "tid": self.tid,
        }
        if self.ph == "X":
            event["dur"] = self.dur
        if self.ph == "i":
            event["s"] = "t"  # thread-scoped instant
        if self.args:
            event["args"] = dict(self.args)
        return event


class Tracer:
    """Append-only recorder of simulator and storage events.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time —
        usually ``lambda: sim.now``. Storage components never talk to
        the simulator; the tracer is the one observer that may.

    The emit API is deliberately tiny: :meth:`instant` for discrete
    events and :meth:`complete` for spans whose start and duration the
    caller already knows (the simulator schedules a compute slice's
    completion at issue time, so both are known up front and events
    append in deterministic issue order).
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.events: list[TraceEvent] = []
        self._lanes: dict[int, str] = dict(_LANE_NAMES)

    def __len__(self) -> int:
        return len(self.events)

    # -- emit --------------------------------------------------------------

    def instant(
        self,
        name: str,
        cat: str,
        tid: int = TID_TASKS,
        **args: Any,
    ) -> None:
        """Record a discrete event at the current simulated time."""
        self.events.append(
            TraceEvent(
                ts=self._clock(),
                ph="i",
                cat=cat,
                name=name,
                tid=tid,
                args=tuple(sorted(args.items())),
            )
        )

    def complete(
        self,
        name: str,
        cat: str,
        start: float,
        dur: float,
        tid: int,
        **args: Any,
    ) -> None:
        """Record a span with known start and duration."""
        self.events.append(
            TraceEvent(
                ts=start,
                ph="X",
                cat=cat,
                name=name,
                tid=tid,
                dur=dur,
                args=tuple(sorted(args.items())),
            )
        )

    def name_lane(self, tid: int, name: str) -> None:
        """Label a lane (exported as ``thread_name`` metadata)."""
        self._lanes[tid] = name

    # -- queries -----------------------------------------------------------

    def select(
        self, cat: Optional[str] = None, name: Optional[str] = None
    ) -> list[TraceEvent]:
        """Events filtered by category and/or name, in record order."""
        return [
            e
            for e in self.events
            if (cat is None or e.cat == cat)
            and (name is None or e.name == name)
        ]

    def count(self, cat: Optional[str] = None, name: Optional[str] = None) -> int:
        return len(self.select(cat, name))

    def compute_time_by_lane(self) -> dict[int, float]:
        """Per-processor sum of compute-slice durations.

        Summed in record order, so each lane's total reproduces the
        simulator's ``Processor.busy_time`` accumulation bit for bit —
        the trace conservation identity the tests assert.
        """
        totals: dict[int, float] = {}
        for event in self.events:
            if event.ph == "X" and event.cat == "compute":
                totals[event.tid] = totals.get(event.tid, 0.0) + event.dur
        return totals

    # -- exports -----------------------------------------------------------

    def to_chrome(self) -> dict:
        """The Chrome/Perfetto ``trace_event`` JSON object."""
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro-sim"},
            }
        ]
        used = {e.tid for e in self.events}
        for tid in sorted(used):
            label = self._lanes.get(tid, f"cpu{tid}")
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        return {
            "traceEvents": metadata + [e.to_chrome() for e in self.events],
            "displayTimeUnit": "ms",
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic serialization of :meth:`to_chrome` (stable key
        order, no wall-clock anywhere — byte-identical across runs)."""
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=True)

    def write(self, path) -> int:
        """Write the Chrome JSON to ``path``; returns the event count."""
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=None))
        return len(self.events)

    def timeline(self, limit: Optional[int] = None) -> str:
        """Plain-text timeline, one line per event in record order."""
        events = self.events if limit is None else self.events[:limit]
        lines = []
        for event in events:
            detail = " ".join(f"{k}={v}" for k, v in event.args)
            span = f" dur={event.dur:.6g}" if event.ph == "X" else ""
            lane = self._lanes.get(event.tid, f"cpu{event.tid}")
            lines.append(
                f"t={event.ts:<12.6g} [{event.cat}/{lane}] "
                f"{event.name}{span}"
                + (f" {detail}" if detail else "")
            )
        if limit is not None and len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)


def attach_tracer(
    sim,
    pool=None,
    memory=None,
    scans=None,
    tracer: Optional[Tracer] = None,
) -> Tracer:
    """Wire one tracer through a simulator and its storage components.

    The single place the attachment convention lives: the simulator
    and every component carry a ``tracer`` attribute defaulting to
    ``None`` (tracing off); this sets them all to the same recorder
    whose clock is the simulator's. Returns the tracer.
    """
    if tracer is None:
        tracer = Tracer(clock=lambda: sim.now)
    sim.tracer = tracer
    for component in (pool, memory, scans):
        if component is not None:
            component.tracer = tracer
    return tracer


def validate_chrome_trace(trace: Mapping | Iterable) -> list[str]:
    """Check an exported object against the Chrome trace schema keys.

    Returns a list of problems (empty = valid): the object must carry
    a ``traceEvents`` list whose members each have ``name``/``ph``/
    ``pid``/``tid``, a numeric ``ts`` on non-metadata events, a
    numeric ``dur`` on complete events, and a scope on instants. Used
    by the CI trace-smoke step and the CLI's ``--validate``.
    """
    problems: list[str] = []
    if not isinstance(trace, Mapping):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace has no 'traceEvents' list"]
    for index, event in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"event {index} missing {key!r}")
        ph = event.get("ph")
        if ph not in ("M", "X", "i"):
            problems.append(f"event {index} has unknown phase {ph!r}")
        if ph in ("X", "i") and not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event {index} has no numeric 'ts'")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"complete event {index} has no numeric 'dur'")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"instant event {index} has no scope 's'")
    return problems


# validate_chrome_trace is exported for the CLI and tests but kept out
# of __all__'s core vocabulary on purpose; import it explicitly.
__all__.append("validate_chrome_trace")
