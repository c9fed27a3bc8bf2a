"""Unified per-query results from a session run.

Before the facade, reading out one run meant touching four objects:
the :class:`~repro.engine.packet.QueryHandle` (rows, timestamps), the
simulator (makespan), the buffer pool and the memory broker (resource
counters), plus the policy's decision record. :class:`QueryResult`
carries all of it: the rows, the simulated latency, the sharing
verdict that routed the query, and the flat
:class:`~repro.obs.metrics.MetricsRegistry` snapshot taken when its
batch finished (spill stall/overlap split, hit rates, stage times)
with the batch's memory grants beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.decision import ShareDecision
from repro.engine.memory import GrantSnapshot, grant_notes
from repro.obs.metrics import render_stall_table, stall_breakdown
from repro.storage.schema import Schema

__all__ = ["QueryResult"]


@dataclass(frozen=True)
class QueryResult:
    """Everything one submitted query produced.

    ``metrics`` is the session's flat registry snapshot taken when the
    query's batch drained, shared by every query of the batch (the pool
    and broker are session-global). Every *counter* in it is cumulative
    over the session — hits, misses, spill pages, ``memory.high_water``,
    scan statistics, ``sim.*``, the ``stall.*`` totals. Two things are
    scoped to the batch, so that a result's size does not grow with the
    session's age: ``grants`` lists the memory grants open or closed
    during this batch (``grant_notes`` therefore answers for this run
    of a plan; empty without a memory broker), and ``metrics`` carries
    the ``stage.<op_id>.*`` rows of the operators that ran in this
    batch. ``Session.metrics()`` stays complete: every operator the
    session ever ran. ``decision``
    is the model verdict that routed the query (``None`` when routing
    was forced or trivially solo). ``makespan`` is the session clock
    when the query's batch drained; it is cumulative across batches
    (equal to the batch's own makespan only on a session's first
    batch), while ``latency`` is always this query's own response
    time.

    Examples
    --------
    >>> from repro.db import Database
    >>> from repro.storage import Catalog, DataType, Schema
    >>> catalog = Catalog()
    >>> table = catalog.create("t", Schema([("k", DataType.INT)]))
    >>> table.insert_many([(i,) for i in range(4)])
    >>> session = Database.open(catalog, "unbounded")
    >>> result = session.run(session.table("t", columns=["k"]),
    ...                      label="probe")
    >>> (result.label, len(result.rows), result.shared)
    ('probe', 4, False)
    >>> result.latency == result.finished_at - result.submitted_at
    True
    >>> result.metrics["sim.now"] == result.makespan
    True
    >>> "buffer.hits" in result.metrics   # the seed config governs nothing
    False
    """

    label: str
    name: str
    schema: Schema
    rows: list[tuple[Any, ...]]
    submitted_at: float
    finished_at: float
    shared: bool
    group_size: int
    decision: Optional[ShareDecision]
    makespan: float
    # Flat metrics snapshot at batch drain (from the session's
    # MetricsRegistry: cumulative counters, this batch's stage rows);
    # None on hand-built results in tests.
    metrics: Optional[dict] = None
    # The memory broker's grants of this batch, oldest first.
    grants: tuple[GrantSnapshot, ...] = ()
    # The audit records whose routing covered this submission.
    audit: tuple = ()
    # Per-operator wall-clock profiles at batch drain (hottest first,
    # session-cumulative like every other counter); None unless the
    # session was opened with RuntimeConfig(perf=True). Entries are
    # :class:`~repro.obs.perf.OpProfile` values.
    perf: Optional[tuple] = None

    @property
    def hot_operator(self) -> Optional[str]:
        """The operator the host spent most wall time in (``None``
        without profiling or before any slice ran)."""
        if not self.perf:
            return None
        return self.perf[0].op

    @property
    def latency(self) -> float:
        """Simulated response time of this query."""
        return self.finished_at - self.submitted_at

    def grant_notes(self, owner: str) -> dict:
        """Operator-reported grant facts (e.g. ``sort_runs``) of this
        batch's newest grant with that owner."""
        return grant_notes(self.grants, owner)

    @property
    def stalls(self) -> dict:
        """The session's cpu / io / drift_throttle / queue_block time
        decomposition at batch drain (empty without metrics)."""
        return stall_breakdown(self.metrics) if self.metrics else {}

    def render(self) -> str:
        verdict = "shared" if self.shared else "solo"
        text = (
            f"{self.label}: {len(self.rows)} rows in {self.latency:.0f} "
            f"sim-units ({verdict}, group of {self.group_size})"
        )
        if self.decision is not None:
            text += f"; predicted Z={self.decision.benefit:.2f}"
        if self.metrics:
            text += "\n" + render_stall_table(self.metrics)
        return text

    def __repr__(self) -> str:
        return (
            f"QueryResult({self.label!r}, rows={len(self.rows)}, "
            f"latency={self.latency:.6g}, "
            f"{'shared' if self.shared else 'solo'})"
        )
