"""Processor contexts and the contention-driven speed model.

The simulated machine is ``n`` identical hardware contexts (the
UltraSparc T1 of the paper exposes 32). A context executes one task's
:class:`~repro.sim.events.Compute` at a time; round-robin fairness
comes from the scheduler re-queueing tasks after every compute chunk.

Contention for shared hardware (Section 4.1.4) is modeled as a speed
multiplier that depends on how many contexts are busy: with the
power-law model, ``b`` busy contexts deliver ``b ** kappa`` contexts'
worth of throughput, i.e. each runs at speed ``b ** (kappa - 1)``.
The speed is sampled when a compute chunk is issued — an approximation
that is exact for ``kappa = 1`` (the paper's validated setting) and
first-order correct otherwise because chunks are small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.contention import ContentionLike, resolve
from repro.sim.task import Task

__all__ = ["Processor", "SpeedModel"]


class SpeedModel:
    """Maps the busy-context count to a per-context speed factor."""

    def __init__(self, contention: ContentionLike = None) -> None:
        self._model = resolve(contention)

    def speed(self, busy: int) -> float:
        """Per-context speed when ``busy`` contexts are executing.

        ``busy`` includes the context asking, so it is always >= 1.
        """
        if busy <= 1:
            return 1.0
        return self._model.effective(busy) / busy


@dataclass(slots=True)
class Processor:
    """One hardware context."""

    index: int
    current: Optional[Task] = None
    busy_time: float = field(default=0.0, init=False)

    @property
    def idle(self) -> bool:
        return self.current is None

    def __repr__(self) -> str:
        who = self.current.name if self.current else "idle"
        return f"Processor({self.index}, {who})"
