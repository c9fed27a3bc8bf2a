"""Wall-clock operator profiling: where does *host* time go?

Everything else in :mod:`repro.obs` observes the **simulated** clock;
this module observes the other one. The reproduction's engine moves
Python row tuples through per-row operator loops, and at TPC-H scale
the harness itself is the bottleneck — the ROADMAP's "raw speed" item
cannot vectorize a hot path it cannot see. :class:`WallProfiler` is
that instrument:

* the :class:`~repro.sim.simulator.Simulator` drives it at every
  stage *slice* boundary — each ``gen.send`` that resumes an operator
  generator is timed with the host clock and attributed to the
  operator (task names follow the engine's ``prefix/op_id``
  convention, so slices aggregate per ``op_id``);
* :class:`~repro.engine.stage.BatchEmitter` feeds per-operator row
  counts at page-flush boundaries, giving each operator a measured
  rows/s;
* :meth:`WallProfiler.totals` decomposes a run's wall time into
  **work** (host seconds spent inside operator generators — the
  simulated work itself) and **harness overhead** (everything else
  inside ``Simulator.run``: the event heap, dispatch, queue
  bookkeeping, and the profiler's own clock reads), so "how much of
  tier-1 is interpreter tax" is finally a number.

Cost discipline mirrors the PR-6 tracer exactly: attachment is by
assignment (``sim.perf = profiler``; the default is ``None``), every
hook site is one pointer test, and a detached profiler costs nothing
and allocates nothing. Unlike the tracer, a profiler's output is
**not** deterministic — it reads the host clock — but it never feeds
back into the simulation: simulated time and answers are bit-identical
with profiling on, off, or detached.

Exports: :meth:`WallProfiler.hotspot_table` (sorted text table),
:meth:`WallProfiler.collapsed` (collapsed-stack text for flamegraph
tooling), and :meth:`WallProfiler.to_chrome` (a ``trace_event`` JSON
object loadable in speedscope and Perfetto, schema-checked by the same
:func:`~repro.obs.trace.validate_chrome_trace` the tracer uses). The
``repro perf`` CLI command wraps all three.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.trace import chrome_trace

__all__ = [
    "OpProfile",
    "WallProfiler",
    "attach_profiler",
]

# Microseconds per second: trace_event ``ts``/``dur`` are in usec.
_USEC = 1_000_000.0


@dataclass(frozen=True)
class OpProfile:
    """One operator's aggregated wall-clock profile.

    ``wall_s`` is host seconds spent inside the operator's generator
    across all its slices; ``calls`` counts the slices (generator
    resumptions); ``rows`` is what its emitter flushed downstream
    (0 for operators that emit through other channels, e.g. sinks).
    """

    op: str
    calls: int
    wall_s: float
    rows: int
    share: float

    @property
    def rows_per_s(self) -> float:
        """Measured emit throughput (0 when nothing was emitted or
        the operator took no measurable time)."""
        if not self.rows or self.wall_s <= 0:
            return 0.0
        return self.rows / self.wall_s


class WallProfiler:
    """Aggregating wall-clock recorder of operator slices.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonic host seconds;
        defaults to :func:`time.perf_counter`. Tests inject a fake
        counter to make profiles deterministic.

    The emit API has three sites, each guarded by one ``is not None``
    check at its caller:

    * :meth:`record_slice` — the simulator, around every
      ``gen.send`` (one *call* per slice);
    * :meth:`record_run` — the simulator, around :meth:`run`
      (accumulates the total the decomposition is measured against);
    * :meth:`add_rows` — the stage emitter, per flushed page.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        # task name -> [calls, wall_s]; mutated on the hot path, so a
        # plain list beats a dataclass here.
        self._slices: dict[str, list] = {}
        self._rows: dict[str, int] = {}
        self.run_wall_s = 0.0
        self.runs = 0

    def __len__(self) -> int:
        return len(self._slices)

    # -- emit (hot path) ---------------------------------------------------

    def record_slice(self, task_name: str, wall_s: float) -> None:
        """Attribute one generator slice to its task."""
        entry = self._slices.get(task_name)
        if entry is None:
            self._slices[task_name] = [1, wall_s]
        else:
            entry[0] += 1
            entry[1] += wall_s

    def record_run(self, wall_s: float) -> None:
        """Accumulate one ``Simulator.run`` call's total wall time."""
        self.run_wall_s += wall_s
        self.runs += 1

    def add_rows(self, op: str, rows: int) -> None:
        """Attribute emitted rows to an operator (page-flush hook)."""
        self._rows[op] = self._rows.get(op, 0) + rows

    # -- aggregation -------------------------------------------------------

    @staticmethod
    def _op_of(task_name: str) -> str:
        """Engine tasks are named ``prefix/op_id``; aggregate on the
        op_id so the same operator across queries (or a shared pivot
        under its group prefix) lands in one bucket. Bare task names
        (hand-spawned simulations) aggregate as themselves."""
        return task_name.rsplit("/", 1)[-1]

    def profile(self) -> list[OpProfile]:
        """Per-operator profiles, hottest first.

        Rows recorded for an operator that never sliced (possible only
        if a caller feeds :meth:`add_rows` by hand) still appear, with
        zero calls and zero wall.
        """
        calls: dict[str, int] = {}
        wall: dict[str, float] = {}
        for task_name, (n, seconds) in self._slices.items():
            op = self._op_of(task_name)
            calls[op] = calls.get(op, 0) + n
            wall[op] = wall.get(op, 0.0) + seconds
        for op in self._rows:
            calls.setdefault(op, 0)
            wall.setdefault(op, 0.0)
        total = sum(wall.values())
        profiles = [
            OpProfile(
                op=op,
                calls=calls[op],
                wall_s=wall[op],
                rows=self._rows.get(op, 0),
                share=(wall[op] / total) if total else 0.0,
            )
            for op in wall
        ]
        profiles.sort(key=lambda p: (-p.wall_s, p.op))
        return profiles

    def totals(self) -> dict:
        """The run's work-vs-harness decomposition as one flat dict.

        ``work_s`` is the sum of every operator slice; ``overhead_s``
        is what remains of ``run_wall_s`` (the scheduler's heap,
        dispatch, queue bookkeeping, and the profiler's clock reads);
        ``overhead_share`` is of ``run_wall_s``. Slices recorded
        outside any ``run`` call (none, in normal use) can push
        ``work_s`` past ``run_wall_s``; the overhead is floored at 0.
        """
        work = sum(entry[1] for entry in self._slices.values())
        overhead = max(self.run_wall_s - work, 0.0)
        total = self.run_wall_s if self.run_wall_s > 0 else work
        return {
            "runs": self.runs,
            "run_wall_s": self.run_wall_s,
            "work_s": work,
            "overhead_s": overhead,
            "overhead_share": (overhead / total) if total else 0.0,
            "slices": sum(entry[0] for entry in self._slices.values()),
            "rows": sum(self._rows.values()),
        }

    # -- exports -----------------------------------------------------------

    def hotspot_table(self, limit: Optional[int] = None) -> str:
        """The sorted hotspot table, plus the decomposition footer."""
        profiles = self.profile()
        shown = profiles if limit is None else profiles[:limit]
        lines = [
            f"{'operator':<20} {'calls':>8} {'rows':>10} "
            f"{'wall ms':>10} {'share':>7} {'rows/s':>12}"
        ]
        for p in shown:
            rate = f"{p.rows_per_s:,.0f}" if p.rows else "-"
            lines.append(
                f"{p.op:<20} {p.calls:>8} {p.rows:>10} "
                f"{p.wall_s * 1e3:>10.3f} {p.share:>6.1%} {rate:>12}"
            )
        if limit is not None and len(profiles) > limit:
            lines.append(f"... {len(profiles) - limit} more operators")
        t = self.totals()
        lines.append(
            f"{'work (operators)':<20} {t['work_s'] * 1e3:>31.3f} ms"
        )
        lines.append(
            f"{'harness overhead':<20} {t['overhead_s'] * 1e3:>31.3f} ms"
            f"  ({t['overhead_share']:.1%} of run)"
        )
        lines.append(
            f"{'run total':<20} {t['run_wall_s'] * 1e3:>31.3f} ms"
            f"  over {t['runs']} run(s), {t['slices']} slices"
        )
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed-stack text (``frame;frame count`` per line, counts
        in integer microseconds) for flamegraph.pl / speedscope /
        inferno. Operators fold under ``run;work``; the scheduler's
        residual folds under ``run;harness``."""
        lines = []
        for p in self.profile():
            usec = round(p.wall_s * _USEC)
            if usec:
                lines.append(f"run;work;{p.op} {usec}")
        overhead = round(self.totals()["overhead_s"] * _USEC)
        if overhead:
            lines.append(f"run;harness {overhead}")
        return "\n".join(lines)

    def to_chrome(self) -> dict:
        """A ``trace_event`` JSON object of the aggregated profile.

        Not a timeline (the profiler aggregates; it does not keep
        per-slice timestamps): operators tile lane ``hotspots`` in
        hottest-first order and the work/harness decomposition tiles
        lane ``decomposition``, so Perfetto and speedscope render the
        profile as proportional bars. Validates against
        :func:`~repro.obs.trace.validate_chrome_trace`.
        """
        t = self.totals()
        lanes = (
            [(p.op, p.wall_s, {"calls": p.calls, "rows": p.rows}) for p in self.profile()],
            [("work", t["work_s"], None), ("harness", t["overhead_s"], None)],
        )
        events: list[dict] = []
        for tid, bars in enumerate(lanes):
            cursor = 0.0
            for name, seconds, args in bars:
                dur = seconds * _USEC
                event = dict(name=name, cat="wall", ph="X", ts=cursor, dur=dur, pid=1, tid=tid)
                if args is not None:
                    event["args"] = args
                events.append(event)
                cursor += dur
        return chrome_trace("repro-wall-clock", {0: "hotspots", 1: "decomposition"}, events)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize :meth:`to_chrome` (stable key order; values are
        wall-clock measurements, so runs differ — unlike the tracer)."""
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=True)

    def write(self, path) -> int:
        """Write the Chrome JSON to ``path``; returns the operator
        count (the mirror of :meth:`Tracer.write`'s event count)."""
        profiles = self.profile()
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=None))
        return len(profiles)


def attach_profiler(
    sim,
    engine=None,
    profiler: Optional[WallProfiler] = None,
    clock: Optional[Callable[[], float]] = None,
) -> WallProfiler:
    """Wire one wall-clock profiler through a simulator and engine.

    The single place the attachment convention lives: the simulator
    carries a ``perf`` attribute defaulting to ``None`` (profiling
    off), and the engine's :class:`~repro.engine.operators.StageContext`
    carries a ``perf`` field its emitters read at construction. Attach
    *before* building plans — stages created earlier keep their
    ``None``. Returns the profiler.
    """
    if profiler is None:
        profiler = WallProfiler(clock=clock)
    sim.perf = profiler
    if engine is not None:
        # StageContext is a frozen dataclass; swap the engine's for a
        # copy carrying the profiler so every stage built from now on
        # hands it to its emitter.
        from dataclasses import replace

        engine.ctx = replace(engine.ctx, perf=profiler)
    return profiler
