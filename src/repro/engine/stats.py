"""Execution statistics: where did the cycles go?

:func:`stage_report` aggregates a simulation's per-task busy times by
operator, giving the per-stage breakdown the paper's profiling
procedure starts from (Section 3.1) and the first thing an engine
developer asks for when a pipeline underperforms ("which stage is the
bottleneck?").

:func:`resource_report` is the storage-side companion: buffer-pool
hit/miss/eviction counters and the memory broker's grant high-water
marks and spill traffic, for engines running with the memory
governance layer (``buffer_pool`` / ``memory``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.engine.memory import MemoryBroker, MemorySnapshot
from repro.sim.simulator import Simulator
from repro.sim.task import Task
from repro.storage.buffer import BufferPool, BufferSnapshot

__all__ = [
    "StageStats",
    "StageReport",
    "StageFold",
    "stage_report",
    "stage_rows",
    "ResourceReport",
    "resource_report",
]


@dataclass(frozen=True)
class StageStats:
    """Aggregated activity of one operator across all its instances.

    ``io_time`` is the portion of ``busy_time`` the stage spent
    stalled on storage (tagged by ``Compute(io=...)``) — nonzero only
    for stages that read through a buffer pool or spill.
    ``drift_throttle`` is *off-processor* pacing time (tagged by
    ``Sleep(throttle=True)``): a scan head the share manager paused
    so a drifting convoy could close up. It is not part of
    ``busy_time`` — a throttled head holds no processor — but it is
    latency the stage's consumers see, so it gets its own stall
    category here. ``queue_block`` is off-processor time parked on a
    full/empty bounded queue (Put/Get blocking) — the serialization
    component of the paper's decomposition: a producer throttled by a
    slow consumer, or a consumer starved by a slow producer.
    """

    op_id: str
    instances: int
    busy_time: float
    busy_share: float
    io_time: float = 0.0
    drift_throttle: float = 0.0
    queue_block: float = 0.0

    @property
    def io_share(self) -> float:
        """Fraction of this stage's busy time that was I/O stall."""
        return self.io_time / self.busy_time if self.busy_time else 0.0

    def __repr__(self) -> str:
        return (
            f"StageStats({self.op_id}, x{self.instances}, "
            f"busy={self.busy_time:.6g}, {self.busy_share:.1%}, "
            f"io={self.io_time:.6g}, throttle={self.drift_throttle:.6g})"
        )


@dataclass(frozen=True)
class StageReport:
    """All stages of a run, ordered by busy time (bottleneck first)."""

    stages: tuple[StageStats, ...]
    total_busy: float

    def bottleneck(self) -> StageStats:
        if not self.stages:
            raise ValueError("report is empty")
        return self.stages[0]

    def stage(self, op_id: str) -> StageStats:
        for stats in self.stages:
            if stats.op_id == op_id:
                return stats
        raise KeyError(op_id)

    def render(self) -> str:
        lines = [f"{'stage':>28}  {'inst':>4}  {'busy':>12}  share"]
        for stats in self.stages:
            bar = "#" * max(1, round(stats.busy_share * 40))
            lines.append(
                f"{stats.op_id:>28}  {stats.instances:>4}  "
                f"{stats.busy_time:>12.1f}  {bar}"
            )
        return "\n".join(lines)


class StageFold:
    """Resumable per-``op_id`` sums over a simulator's task list.

    ``sums`` holds, per operator id, ``[instances, busy, io, throttle,
    queue_block]`` over ``tasks[:folded]`` — the longest prefix in
    which every task has finished. A finished task's ledger never
    changes, so the prefix is summed once; each float is the same
    left-to-right sum in spawn order a fold from scratch produces,
    and continuing it over the rest of the list reproduces that fold
    bit for bit. :func:`stage_report` keeps one of these on the
    simulator (``Simulator.stage_fold``), which makes a report cost
    the tasks spawned since the last one, not every task ever.
    """

    __slots__ = ("folded", "sums")

    def __init__(self) -> None:
        self.folded = 0
        self.sums: dict[str, list] = {}


def _fold(sums: dict[str, list], tasks: Iterable[Task], group_prefix: Optional[str]) -> None:
    """Add each operator task's ledger to its ``op_id`` row, in order."""
    for task in tasks:
        name = task.name
        if "/" not in name:
            continue
        if group_prefix is not None and not name.startswith(group_prefix):
            continue
        op_id = name.rsplit("/", 1)[-1]
        row = sums.get(op_id)
        if row is None:
            row = sums[op_id] = [0, 0.0, 0.0, 0.0, 0.0]
        row[0] += 1
        row[1] += task.busy_time
        row[2] += task.io_time
        row[3] += task.throttle_time
        row[4] += task.queue_block_time


def _simulator_sums(sim: Simulator) -> dict[str, list]:
    """Every task of ``sim`` folded, resuming from its finished prefix."""
    fold = sim.stage_fold
    if fold is None:
        fold = sim.stage_fold = StageFold()
    tasks = sim.tasks
    start = end = fold.folded
    while end < len(tasks) and not tasks[end].alive:
        end += 1
    if end > start:
        _fold(fold.sums, tasks[start:end], None)
        fold.folded = end
    if end == len(tasks):
        return fold.sums
    sums = {op_id: list(row) for op_id, row in fold.sums.items()}
    _fold(sums, tasks[end:], None)
    return sums


def _stage_sums(
    source: Simulator | Iterable[Task], include_sinks: bool, group_prefix: Optional[str]
) -> dict[str, list]:
    """``op_id -> [instances, busy, io, throttle, queue_block]``, in
    first-spawned order. A whole simulator is folded incrementally
    (:class:`StageFold`), a filtered or explicit task set from scratch."""
    if isinstance(source, Simulator) and group_prefix is None:
        sums = _simulator_sums(source)
    else:
        sums = {}
        _fold(sums, source.tasks if isinstance(source, Simulator) else source, group_prefix)
    if not include_sinks:
        sums = {op_id: row for op_id, row in sums.items() if op_id != "sink"}
    return sums


def _busiest_first(sums: dict[str, list]) -> list[tuple[str, list]]:
    return sorted(sums.items(), key=lambda item: item[1][1], reverse=True)


def stage_rows(source: Simulator | Iterable[Task]) -> list[tuple[str, list]]:
    """:func:`stage_report`'s numbers without its objects: ``(op_id,
    [instances, busy, io, drift_throttle, queue_block])`` per operator,
    busiest first — the order totals over stages are summed in. For
    the metrics registry, which flattens them every batch."""
    return _busiest_first(_stage_sums(source, False, None))


def stage_report(
    source: Simulator | Iterable[Task],
    include_sinks: bool = False,
    group_prefix: Optional[str] = None,
) -> StageReport:
    """Aggregate busy time by operator id.

    ``source`` is a simulator (all its tasks) or an explicit task
    iterable (e.g. one group's tasks from ``Engine.group_tasks``).
    ``group_prefix`` filters tasks whose name starts with it.
    """
    sums = _stage_sums(source, include_sinks, group_prefix)
    total = sum(row[1] for row in sums.values())
    stages = tuple(
        StageStats(
            op_id=op_id,
            instances=instances,
            busy_time=busy,
            busy_share=(busy / total if total else 0.0),
            io_time=io,
            drift_throttle=throttle,
            queue_block=blocked,
        )
        for op_id, (instances, busy, io, throttle, blocked) in _busiest_first(sums)
    )
    return StageReport(stages=stages, total_busy=total)


@dataclass(frozen=True)
class ResourceReport:
    """Buffer-pool, working-memory, and scan-share counters of one
    engine run.

    Any side may be ``None``/empty when the engine runs without that
    layer (the seed configuration has none of them). ``scans`` is the
    :class:`~repro.storage.shared_scan.ScanShareManager`'s per-table
    snapshot — including the drift block (max lag, throttle stall,
    group-window splits/merges) — when cooperative scans are wired.
    """

    buffer: Optional[BufferSnapshot]
    memory: Optional[MemorySnapshot]
    scans: tuple = ()

    @property
    def spill_pages_written(self) -> int:
        return self.buffer.spill_pages_written if self.buffer else 0

    @property
    def spill_pages_read(self) -> int:
        return self.buffer.spill_pages_read if self.buffer else 0

    @property
    def hit_rate(self) -> float:
        return self.buffer.hit_rate if self.buffer else 0.0

    @property
    def spill_prefetch_issued(self) -> int:
        """Spill-page reads issued ahead of use by SpillCursors."""
        return self.buffer.spill_prefetch_issued if self.buffer else 0

    @property
    def spill_read_stall(self) -> float:
        """Spill read-back cost paid as synchronous stall."""
        return self.buffer.spill_read_stall if self.buffer else 0.0

    @property
    def spill_read_overlapped(self) -> float:
        """Spill read-back cost hidden behind operator CPU work."""
        return self.buffer.spill_read_overlapped if self.buffer else 0.0

    @property
    def drift_throttle_stall(self) -> float:
        """Head-pause cost charged by the drift bound across tables."""
        return sum(s.throttle_stall_cost for s in self.scans)

    @property
    def scan_splits(self) -> int:
        """Group windows opened by drift violations across tables."""
        return sum(s.splits for s in self.scans)

    @property
    def scan_merges(self) -> int:
        """Group windows merged back (laps and drains) across tables."""
        return sum(s.merges for s in self.scans)

    def scan_stats(self, table: str):
        """The share/drift statistics of one table's elevator."""
        for stats in self.scans:
            if stats.table == table:
                return stats
        raise KeyError(table)

    def grant_notes(self, owner: str) -> dict:
        """Operator-reported facts for one grant owner (e.g. the
        external sort's ``sort_runs`` / ``merge_passes``) — of the
        newest grant with that owner, when a plan ran more than once."""
        if self.memory is None:
            raise KeyError(owner)
        for grant in reversed(self.memory.grants):
            if grant.owner == owner:
                return dict(grant.notes)
        raise KeyError(owner)

    def render(self) -> str:
        lines = []
        if self.buffer is not None:
            lines.append(self.buffer.render())
        if self.memory is not None:
            lines.append(self.memory.render())
        lines.extend(stats.render() for stats in self.scans)
        return "\n".join(lines) if lines else "no resource governance attached"


def resource_report(
    source,
    memory: Optional[MemoryBroker] = None,
) -> ResourceReport:
    """Snapshot buffer/memory/scan counters from an engine (or a pool).

    ``source`` is an :class:`~repro.engine.engine.Engine` (its ``pool``,
    ``memory``, and ``scan_manager`` are read), or a
    :class:`BufferPool` combined with an explicit ``memory`` broker.
    """
    scans = None
    if isinstance(source, BufferPool):
        pool = source
    else:
        pool = getattr(source, "pool", None)
        if memory is None:
            memory = getattr(source, "memory", None)
        scans = getattr(source, "scan_manager", None)
    return ResourceReport(
        buffer=pool.snapshot() if pool is not None else None,
        memory=memory.snapshot() if memory is not None else None,
        scans=scans.snapshot() if scans is not None else (),
    )
