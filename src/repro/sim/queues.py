"""Bounded inter-stage queues for the simulator.

The model assumes finite buffering between pipeline operators so that
"slow consumers throttle producers" (Section 4); :class:`SimQueue` is
that buffer. Tasks never touch these methods directly — they yield
:class:`~repro.sim.events.Put`/:class:`~repro.sim.events.Get` requests
and the scheduler calls into the queue, parking tasks on the waiter
lists when an operation cannot complete.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.task import Task

__all__ = ["SimQueue"]


class SimQueue:
    """A bounded FIFO connecting simulated tasks.

    Parameters
    ----------
    name:
        Label used in diagnostics (e.g. ``"scan#3->agg#3"``).
    capacity:
        Maximum buffered items; must be >= 1. Small capacities couple
        producer and consumer rates tightly (the paper's pipelines);
        large capacities decouple them.
    """

    def __init__(self, name: str, capacity: int = 4) -> None:
        if capacity < 1:
            raise SimulationError(
                f"queue {name!r}: capacity must be >= 1, got {capacity}"
            )
        self.name = name
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self.closed = False
        # Tasks parked on this queue, with the scheduler's bookkeeping.
        self.waiting_getters: deque["Task"] = deque()
        self.waiting_putters: deque[tuple["Task", Any]] = deque()
        # Cumulative counters for tests and stats.
        self.total_enqueued = 0
        self.total_dequeued = 0

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"SimQueue({self.name!r}, {len(self.items)}/{self.capacity}, {state})"
        )

    @property
    def full(self) -> bool:
        return len(self.items) >= self.capacity

    @property
    def drained(self) -> bool:
        """Closed with nothing left to deliver."""
        return self.closed and not self.items
