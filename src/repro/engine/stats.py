"""Execution statistics: where did the cycles go?

:func:`stage_rows` aggregates a simulation's per-task ledgers by
operator, giving the per-stage breakdown the paper's profiling
procedure starts from (Section 3.1) and the first thing an engine
developer asks for when a pipeline underperforms ("which stage is the
bottleneck?"). It is the source of the metrics registry's
``stage.<op_id>.*`` rows and ``stall.*`` totals
(:meth:`repro.obs.metrics.MetricsRegistry.for_engine`), which is where
these numbers are read.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.simulator import Simulator
from repro.sim.task import Task

__all__ = ["StageFold", "retire_finished", "stage_rows"]


class StageFold:
    """Resumable per-``op_id`` sums over a simulator's task list.

    ``sums`` holds, per operator id, ``[instances, busy, io, throttle,
    queue_block]`` over every retired task and ``tasks[:folded]`` —
    the longest prefix in which every task has finished. A finished
    task's ledger never changes, so the prefix is summed once; each
    float is the same left-to-right sum in spawn order a fold from
    scratch produces, and continuing it over the rest of the list
    reproduces that fold bit for bit. :func:`stage_rows` keeps one of
    these on the simulator (``Simulator.stage_fold``), which makes a
    read cost the tasks spawned since the last one, not every task
    ever; :func:`retire_finished` drops the folded prefix from the
    list, whose sums the fold already owns.
    """

    __slots__ = ("folded", "sums")

    def __init__(self) -> None:
        self.folded = 0
        self.sums: dict[str, list] = {}


def _fold(sums: dict[str, list], tasks: Iterable[Task]) -> None:
    """Add each operator task's ledger to its ``Task.op_id`` row, in
    order. Sinks and hand-spawned tasks have no ``op_id`` and no row."""
    for task in tasks:
        op_id = task.op_id
        if op_id is None:
            continue
        row = sums.get(op_id)
        if row is None:
            row = sums[op_id] = [0, 0.0, 0.0, 0.0, 0.0]
        row[0] += 1
        row[1] += task.busy_time
        row[2] += task.io_time
        row[3] += task.throttle_time
        row[4] += task.queue_block_time


def _fold_finished_prefix(sim: Simulator) -> StageFold:
    """``sim``'s fold, extended over the finished tasks after its prefix."""
    fold = sim.stage_fold
    if fold is None:
        fold = sim.stage_fold = StageFold()
    tasks = sim.tasks
    start = end = fold.folded
    while end < len(tasks) and not tasks[end].alive:
        end += 1
    if end > start:
        _fold(fold.sums, tasks[start:end])
        fold.folded = end
    return fold


def _simulator_sums(sim: Simulator) -> dict[str, list]:
    """Every task of ``sim`` folded, resuming from its finished prefix."""
    fold = _fold_finished_prefix(sim)
    tasks = sim.tasks
    if fold.folded == len(tasks):
        return fold.sums
    sums = {op_id: list(row) for op_id, row in fold.sums.items()}
    _fold(sums, tasks[fold.folded :])
    return sums


def retire_finished(sim: Simulator) -> None:
    """Fold ``sim``'s finished prefix of tasks and drop it from
    ``sim.tasks``: its sums stay in the fold, so :func:`stage_rows`
    reads the same numbers after as before, and the list keeps only
    the first unfinished task and those spawned after it."""
    fold = _fold_finished_prefix(sim)
    del sim.tasks[: fold.folded]
    fold.folded = 0


def stage_rows(source: Simulator | Iterable[Task]) -> list[tuple[str, list]]:
    """``(op_id, [instances, busy, io, drift_throttle, queue_block])``
    per operator, busiest first — the order totals over stages are
    summed in.

    ``source`` is a simulator (all its tasks, folded incrementally —
    :class:`StageFold`) or an explicit task iterable (e.g. one group's
    ``GroupHandle.tasks``, folded from scratch).

    ``io`` is the portion of ``busy`` the stage spent stalled on
    storage (tagged by ``Compute(io=...)``) — nonzero only for stages
    that read through a buffer pool or spill. ``drift_throttle`` is
    *off-processor* pacing time (tagged by ``Sleep(throttle=True)``):
    a scan head the share manager paused so a drifting convoy could
    close up. It is not part of ``busy`` — a throttled head holds no
    processor — but it is latency the stage's consumers see, so it
    gets its own stall category. ``queue_block`` is off-processor time
    parked on a full/empty bounded queue (Put/Get blocking) — the
    serialization component of the paper's decomposition: a producer
    throttled by a slow consumer, or a consumer starved by a slow
    producer.
    """
    if isinstance(source, Simulator):
        sums = _simulator_sums(source)
    else:
        sums = {}
        _fold(sums, source)
    return sorted(sums.items(), key=lambda item: item[1][1], reverse=True)
