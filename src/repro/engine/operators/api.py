"""The batched operator protocol.

This module is the one place the operator execution API is defined.
An operator is a :class:`BatchOperator`: a small object the engine
constructs per stage with the plan node, the :class:`StageContext` and
its output queues, exposing four generator hooks —

* :meth:`~BatchOperator.open` — runs before any input is read. Source
  operators (scan) do *all* their work here.
* :meth:`~BatchOperator.next_batch` — one input batch on one port.
* :meth:`~BatchOperator.close_port` — the port's producer closed.
* :meth:`~BatchOperator.finish` — all ports drained; the base
  implementation closes the emitter (operators holding a memory grant
  override it to release the grant *after* the emitter closes, which
  keeps the grant-accounting event order stable).

:func:`drive` turns an operator instance into the simulator task the
engine spawns: it opens the operator, drains each input port to
``CLOSED`` (in :attr:`~BatchOperator.port_order`, so e.g. the nested-
loop join reads its inner input first), and finishes. Every hook is a
generator so operators yield :mod:`repro.sim.events` requests exactly
where the cost model says the work happens.

Operators receive :class:`~repro.engine.packet.RowBatch` payloads and
emit through :class:`~repro.engine.stage.BatchEmitter` — whole batches
or row lists. Each operator has one staged implementation; its answers
are checked against the naive executor
(:mod:`repro.engine.reference`) and its simulated clock against
recorded golden times (``tests/test_batch_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.engine.costs import CostModel
from repro.engine.memory import MemoryBroker
from repro.engine.stage import BatchEmitter
from repro.sim.events import CLOSED, Get
from repro.sim.queues import SimQueue
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.shared_scan import ScanShareManager

__all__ = ["StageContext", "BatchOperator", "drive"]


@dataclass(frozen=True)
class StageContext:
    """Everything a stage needs besides its queues.

    ``pool``, ``memory`` and ``scans`` are the optional
    resource-governance layer: with a
    :class:`~repro.storage.buffer.BufferPool` attached, scans charge
    ``io_page`` per cold page; with a
    :class:`~repro.engine.memory.MemoryBroker` attached, the hash
    join, hash aggregate and sort take working-memory grants and spill
    when over budget; with a
    :class:`~repro.storage.shared_scan.ScanShareManager` attached,
    scans ride per-table elevator cursors (cooperative scan sharing
    with async prefetch). All default to ``None`` — the seed's
    unbounded-memory behavior.

    ``spill_prefetch`` is the read-ahead depth governed operators use
    when re-reading their spill runs through a
    :class:`~repro.storage.spill_cursor.SpillCursor` (0 = synchronous
    read-back, the pre-cursor behavior).

    ``perf`` is the opt-in wall-clock profiler
    (:class:`~repro.obs.perf.WallProfiler`): stages hand it to their
    :class:`~repro.engine.stage.BatchEmitter` so flushed batches report
    per-operator row counts. ``None`` (the default) disables the hook
    entirely; :func:`~repro.obs.perf.attach_profiler` swaps a live
    engine's context for one carrying a profiler.
    """

    catalog: Catalog
    costs: CostModel
    page_rows: int
    pool: Optional[BufferPool] = None
    memory: Optional[MemoryBroker] = None
    scans: Optional[ScanShareManager] = None
    spill_prefetch: int = 0
    perf: Optional[object] = None


class BatchOperator:
    """Base class of the staged operators.

    Subclasses set :attr:`ports` (input arity) and may set
    :attr:`port_order` when input queues must drain in non-natural
    order. The constructor is the single emitter-construction site:
    subclasses compute their output ``width`` and call
    :meth:`make_emitter` once.
    """

    ports: int = 1
    port_order: Optional[Sequence[int]] = None

    def __init__(self, node, ctx: StageContext, out_queues: Sequence[SimQueue]) -> None:
        self.node = node
        self.ctx = ctx
        self.out_queues = out_queues
        self.emitter: Optional[BatchEmitter] = None

    def make_emitter(self, width: int) -> BatchEmitter:
        ctx = self.ctx
        self.emitter = BatchEmitter(
            self.out_queues,
            ctx.page_rows,
            ctx.costs,
            width=width,
            op=self.node.op_id,
            perf=ctx.perf,
        )
        return self.emitter

    # -- protocol hooks (all simulator generators) -----------------------

    def open(self) -> Generator:
        """Work before any input batch; sources run entirely here."""
        return
        yield  # pragma: no cover

    def next_batch(self, batch, port: int) -> Generator:
        """Consume one input batch from ``port``."""
        return
        yield  # pragma: no cover

    def close_port(self, port: int) -> Generator:
        """The producer feeding ``port`` closed its stream."""
        return
        yield  # pragma: no cover

    def finish(self) -> Generator:
        """All inputs drained; default closes the output emitter."""
        yield from self.emitter.close()


def drive(op: BatchOperator, in_queues: Sequence[SimQueue]) -> Generator:
    """The simulator task driving one operator instance."""
    yield from op.open()
    order = op.port_order if op.port_order is not None else range(len(in_queues))
    for port in order:
        queue = in_queues[port]
        while True:
            batch = yield Get(queue)
            if batch is CLOSED:
                break
            yield from op.next_batch(batch, port)
        yield from op.close_port(port)
    yield from op.finish()
