"""Stage plumbing: batch streams in, multiplexed batch streams out.

Every engine operator runs as one simulator task: a generator yielding
:mod:`repro.sim.events` requests. Input is consumed with the idiom::

    while True:
        batch = yield Get(in_q)
        if batch is CLOSED:
            break
        ...

Output goes through :class:`BatchEmitter`, which accumulates rows into
full batches and delivers each batch to *every* consumer queue,
charging the cost model's per-consumer output costs. With one consumer
this is plain pipelining; with M consumers it is the pivot's
multiplexing — the serialization the paper identifies as the hidden
cost of sharing.

Producers hand the emitter row tuples
(:meth:`~BatchEmitter.emit_rows` — joins, sorts, aggregates), column
sequences (:meth:`~BatchEmitter.emit_columns` — the exchange's
partition buckets) or whole :class:`~repro.engine.packet.RowBatch`
objects (:meth:`~BatchEmitter.emit_batch` — scan, filter, project). A
batch that is already exactly ``batch_rows`` long passes straight
through in whatever representation it has, without copying — the
common case for a saturated scan; anything else is buffered in its own
backing (a column-backed batch as columns, a row-backed one as rows)
and re-cut at ``batch_rows``.

"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.engine.costs import CostModel
from repro.engine.packet import RowBatch
from repro.errors import EngineError
from repro.sim.events import Close, Compute, Put
from repro.sim.queues import SimQueue

__all__ = ["BatchEmitter"]


class BatchEmitter:
    """Accumulates rows and multiplexes full batches to all consumers.

    Driven from inside an operator generator::

        emitter = BatchEmitter(out_queues, batch_rows, costs)
        ...
        yield from emitter.emit_batch(batch)       # may flush batches
        yield from emitter.emit_rows(rows)         # ditto, row tuples
        yield from emitter.emit_columns(columns)   # ditto, columns
        ...
        yield from emitter.close()                 # flush tail + Close

    A stage's emitters are closed by
    :func:`~repro.engine.operators.api.drive`, after ``finish``.

    Per batch flushed, each consumer costs
    ``output_page + output_value * len(batch) * width`` compute units
    before the Put — a pivot with M consumers spends M times the output
    work of an unshared operator, exactly the model's ``s * M`` term.
    ``width`` is the emitted tuple width in columns (copy cost scales
    with tuple bytes). Flush boundaries depend only on the cumulative
    row count, so any split of the same row stream into emit calls, in
    either backing, yields the identical event sequence.

    The buffer holds whichever backing the last call brought: row
    tuples, or one list per column. When the backing switches, the
    pending part-page is converted and kept, never flushed early, and
    the next page is cut from that one buffer — so a stream of columns
    leaves as column-backed pages and a stream of rows as row-backed
    ones.

    ``op``/``perf`` are the wall-clock profiling hook (see
    :mod:`repro.obs.perf`): with a profiler attached, every batch flush
    reports its row count against the operator id, giving the profiler
    a measured rows/s per operator. One pointer test per flush;
    ``perf=None`` (the default) costs nothing.
    """

    def __init__(
        self,
        out_queues: Sequence[SimQueue],
        batch_rows: int,
        costs: CostModel,
        width: int = 1,
        op: str = "",
        perf=None,
    ) -> None:
        if not out_queues:
            raise EngineError("operator needs at least one output queue")
        if batch_rows < 1:
            raise EngineError(f"batch_rows must be >= 1, got {batch_rows}")
        if width < 1:
            raise EngineError(f"width must be >= 1, got {width}")
        self.out_queues = list(out_queues)
        self.batch_rows = batch_rows
        self.costs = costs
        self.width = width
        self.op = op
        self.perf = perf
        self._rows: list[tuple] = []
        # One list per column while the buffer holds columns, else None.
        self._columns: list[list] | None = None
        self._count = 0
        # A full batch always costs the same, and Compute requests are
        # immutable — deliver one shared instance instead of allocating
        # per flush (the steady-state case for a saturated producer).
        self._full_compute = Compute(
            costs.page_output_cost(batch_rows, width, consumers=1)
        )

    @property
    def consumers(self) -> int:
        return len(self.out_queues)

    # -- producing -------------------------------------------------------

    def emit_rows(self, rows: Sequence[tuple]) -> Generator:
        """Buffer a sequence of row tuples."""
        n = len(rows)
        if n == 0:
            return
        if self._count == 0 and n == self.batch_rows:
            yield from self._deliver(RowBatch.from_rows(rows, self.width))
            return
        if self._columns is not None:
            self._rows = list(zip(*self._columns))
            self._columns = None
        self._rows.extend(rows)
        self._count += n
        while self._count >= self.batch_rows:
            yield from self._flush()

    def emit_columns(self, columns: Sequence[Sequence]) -> Generator:
        """Buffer one sequence per column, all of one length."""
        n = len(columns[0])
        if n == 0:
            return
        buffer = self._columns
        if buffer is None:
            buffer = [list(column) for column in zip(*self._rows)] or [[] for _ in columns]
            self._columns = buffer
            self._rows = []
        # Extended in C (``any`` only drains the map): a filtered page
        # brings a few rows per call, where a Python loop over the
        # columns costs twice as much.
        any(map(list.extend, buffer, columns))
        self._count += n
        while self._count >= self.batch_rows:
            yield from self._flush()

    def emit_batch(self, batch: RowBatch) -> Generator:
        """Buffer a whole batch in its backing, passing it through
        unsplit if aligned."""
        n = batch._n
        if n == 0:
            return
        if self._count == 0 and n == self.batch_rows:
            yield from self._deliver(batch)
        elif batch._columns is None:
            yield from self.emit_rows(batch.rows)
        else:
            yield from self.emit_columns(batch.columns)

    def close(self) -> Generator:
        """Flush the partial batch and close every consumer queue."""
        if self._count:
            yield from self._flush()
        for queue in self.out_queues:
            yield Close(queue)

    # -- internals -------------------------------------------------------

    def _flush(self) -> Generator:
        """Deliver the next page cut from the buffer (returns the
        delivering generator, so a flush adds no frame of its own)."""
        take = min(self._count, self.batch_rows)
        self._count -= take
        buffer = self._columns
        if buffer is None:
            batch = RowBatch.from_rows(self._rows[:take], self.width)
            del self._rows[:take]
        else:
            batch = RowBatch.from_columns([tuple(pending[:take]) for pending in buffer], take)
            for pending in buffer:
                del pending[:take]
        return self._deliver(batch)

    def _deliver(self, batch: RowBatch) -> Generator:
        n = batch._n
        if self.perf is not None:
            self.perf.add_rows(self.op, n)
        if n == self.batch_rows:
            compute = self._full_compute
        else:
            compute = Compute(
                self.costs.page_output_cost(n, self.width, consumers=1)
            )
        for queue in self.out_queues:
            yield compute
            yield Put(queue, batch)
