"""Task bookkeeping for the simulator.

A :class:`Task` wraps a user generator together with its scheduling
state and accounting (busy time, completion time). States:

``READY``   in the run queue waiting for a processor,
``RUNNING`` holding a processor (inside a Compute),
``BLOCKED`` parked on a queue or sleeping,
``DONE``    generator exhausted,
``FAILED``  generator raised, or the simulator rejected a request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

__all__ = ["Task", "READY", "RUNNING", "BLOCKED", "DONE", "FAILED"]

READY = "ready"
RUNNING = "running"
BLOCKED = "blocked"
DONE = "done"
FAILED = "failed"


@dataclass(slots=True)
class Task:
    """One simulated thread of execution.

    Attributes
    ----------
    name:
        Diagnostic label, e.g. ``"q6#3/scan"``.
    gen:
        The generator yielding :mod:`repro.sim.events` requests.
    on_done:
        Callback invoked at the simulated completion instant; receives
        the task. Closed-system clients use it to resubmit queries.
    owner:
        The group the task works for (an engine task's
        :class:`~repro.engine.packet.GroupHandle`, its sink included),
        or ``None`` for a task spawned by hand. A failing task is
        handed to ``owner.fail(task, error)``; an ownerless one raises
        out of :meth:`~repro.sim.simulator.Simulator.run`. Dropped when
        the task ends, so a finished task does not keep its group alive.
    op_id:
        The operator the task runs, keying its ``stage.<op_id>.*`` row:
        the plan node's ``op_id``, or ``"<op_id>.exchange"``,
        ``".gather"`` or ``".merge"`` for a parallel-fabric task.
        ``None`` for sinks and hand-spawned tasks, which have no row.
    """

    name: str
    gen: Generator[Any, Any, Any]
    on_done: Optional[Callable[["Task"], None]] = None
    owner: Any = None
    op_id: Optional[str] = None

    state: str = field(default=READY, init=False)
    resume_value: Any = field(default=None, init=False)
    busy_time: float = field(default=0.0, init=False)
    # Portion of busy_time tagged as I/O stall by Compute(io=...).
    io_time: float = field(default=0.0, init=False)
    # Off-processor time tagged as drift-throttle pacing by
    # Sleep(throttle=True) — a scan head paused for its convoy.
    throttle_time: float = field(default=0.0, init=False)
    # Off-processor time spent parked on a full/empty bounded queue
    # (Put/Get blocking) — the serialization component of the paper's
    # time decomposition. Accrued at wake time via ``blocked_since``.
    queue_block_time: float = field(default=0.0, init=False)
    blocked_since: Optional[float] = field(default=None, init=False)
    spawned_at: float = field(default=0.0, init=False)
    finished_at: Optional[float] = field(default=None, init=False)
    # The SimulationError the task failed with; when its generator
    # raised, that exception is the error's ``__cause__``.
    error: Optional[BaseException] = field(default=None, init=False)
    # Guard against zero-time livelock (yield loops with no Compute).
    zero_time_steps: int = field(default=0, init=False)

    def __repr__(self) -> str:
        return f"Task({self.name!r}, {self.state})"

    @property
    def alive(self) -> bool:
        return self.state not in (DONE, FAILED)

    def response_time(self) -> float:
        """Wall-clock (simulated) time from spawn to completion."""
        if self.finished_at is None:
            raise ValueError(f"task {self.name!r} has not finished")
        return self.finished_at - self.spawned_at
