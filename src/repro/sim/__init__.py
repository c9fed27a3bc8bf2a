"""Discrete-event chip-multiprocessor simulator.

This package is the hardware substrate of the reproduction: it stands
in for the paper's UltraSparc T1 server (8 cores x 4 contexts,
round-robin fairness). See DESIGN.md for why this substitution
preserves the behaviours the paper's experiments measure.

Public surface:

* :class:`~repro.sim.simulator.Simulator` — the event loop and
  scheduler,
* :mod:`repro.sim.events` — the task request vocabulary (``Compute``,
  ``Put``, ``Get``, ``Close``, ``Sleep``, ``CLOSED``),
* :class:`~repro.sim.queues.SimQueue` — bounded inter-stage buffers.
"""

from repro.sim.events import CLOSED, Close, Compute, Get, Put, Sleep
from repro.sim.queues import SimQueue
from repro.sim.simulator import Simulator
from repro.sim.task import Task

__all__ = [
    "CLOSED",
    "Close",
    "Compute",
    "Get",
    "Put",
    "Sleep",
    "SimQueue",
    "Simulator",
    "Task",
]
