"""Exchange, gather, and ordered-merge stages (Gamma-style).

The exchange subsystem turns one logical operator into ``dop``
cooperating *fragments* connected by repartitioning queues:

* :class:`ExchangeOperator` — the producer half of a repartitioning.
  It hashes each row's partition key and routes the row to one of
  ``dop`` partition queues through a *dedicated* per-partition emitter
  (unlike an ordinary stage's emitter, which multiplexes every batch
  to every consumer). Rows leave each partition stream in input order,
  which is what the bit-identity argument below rests on. A
  column-backed batch is routed as columns and leaves as column-backed
  pages, so a partition-wise aggregate folds them without a transpose;
  a row-backed one is routed as row tuples.
* :class:`GatherOperator` — deterministic fan-in: driven as one port
  of ``dop`` queues, it drains them strictly in fragment order and
  concatenates. For contiguous page-range fragments this reproduces
  the serial scan's row order exactly; for partition-wise joins it fixes a deterministic (if
  different from serial) order, keeping the row *set* identical.
* :func:`ordered_merge` — the k-way merge gather used above
  partition-wise aggregates: each partition emits its groups in
  ``_sort_key`` order over *disjoint* key sets, so merging by key
  reproduces the serial aggregate's output stream bit for bit. It
  advances one received batch per step through
  :func:`~repro.engine.operators.sort.merge_spans`, the span kernel
  the external sort merges its runs with.

Every consumer of fragments is an ordinary
:func:`~repro.engine.operators.api.drive` over several queues per port
(the partition-wise aggregate reads ``dop`` partition queues as its
single port; the partition-wise join reads ``dop`` build queues then
``dop`` probe queues). A port's queues drain sequentially in fragment
order — with producer fragments running concurrently into generously
sized partition queues, the drain order fixes determinism without
serializing the producers.

Why partition-wise aggregation is bit-identical to serial: the
exchange assigns every group key to exactly one consumer fragment, a
consumer drains its producer ports in fragment order, and each
fragment covers a contiguous page range — so within any one group the
value stream arrives in global page order, exactly as the serial
aggregate folds it. Floating-point accumulation order, and hence every
last ulp, is preserved; the final merge by group key over disjoint
sorted partitions is exactly the serial output order.
"""

from __future__ import annotations

from itertools import count, repeat
from operator import itemgetter
from typing import Generator, Sequence

from repro.engine.operators.api import BatchOperator
from repro.engine.operators.partitioning import PartitionMemo
from repro.engine.operators.sort import merge_spans
from repro.engine.packet import RowBatch
from repro.engine.stage import BatchEmitter
from repro.sim.events import CLOSED, Compute, Get
from repro.sim.queues import SimQueue

__all__ = [
    "EXCHANGE_MEMO_KEYS",
    "EXCHANGE_SALT",
    "ExchangeOperator",
    "GatherOperator",
    "ordered_merge",
]

# Distinct from the governed operators' internal partitioning salts
# (0, then recursion depth), so an exchange's partition assignment does
# not correlate with a downstream spilling operator's fanout buckets.
EXCHANGE_SALT = 97

# Keys an engine's exchange memo holds before it starts over. The memo
# lives as long as its engine and serves every exchange of one fanout,
# so it is sized for whole key domains, not for one query's batches:
# the largest the benchmark routes is ``o_orderkey``, 16.5k keys at
# scale factor 0.011.
EXCHANGE_MEMO_KEYS = 1 << 16


class ExchangeOperator(BatchOperator):
    """Hash-repartition one fragment's output across ``dop`` queues.

    ``node`` is the plan node whose output is being repartitioned
    (schema and op_id provide the width and the stage name);
    ``key_indices`` are the partition-key columns; ``memo`` is the
    engine's :class:`~repro.engine.operators.partitioning.PartitionMemo`
    for this fanout (:meth:`~repro.engine.engine.Engine.exchange_memo`),
    so the hash is paid once per distinct key per engine. One
    :class:`_PartitionEmitter` per output queue keeps partition streams
    independent: a batch is bucketed in input order and each bucket
    rides its own emitter, so a consumer sees only its partition, in
    producer order.

    A bucket keeps the batch's backing. A column-backed batch is split
    into one tuple of column tuples per partition, taken from its key
    columns without building a row tuple, and its partitions leave as
    column-backed pages; a row-backed batch (a re-cut filtered page,
    the table's partial last page) is split into row tuples.

    The buckets are a pure function of the batch and the route
    ``(key_indices, fanout)``, so the exchange keeps them on the batch
    (its ``_split`` slot: the route, whether the buckets are columns,
    and the buckets, ``()`` for a partition that gets nothing). A page
    the fused memo parks reaches the exchange as the same batch every
    run, and is then split once, not once per run. The simulated
    ``exchange_tuple`` charge is paid every time either way.
    """

    ports = 1

    def __init__(self, node, ctx, out_queues, key_indices, memo: PartitionMemo) -> None:
        super().__init__(node, ctx, out_queues)
        # One index partitions on the bare value, several on their tuple.
        self._key_of = itemgetter(*key_indices)
        self._key_indices = tuple(key_indices)
        self._memo = memo
        self._route = (self._key_indices, len(out_queues))
        width = len(node.schema)
        self._emitters = [
            _PartitionEmitter(queue, ctx, width, f"{node.op_id}.part{p}")
            for p, queue in enumerate(out_queues)
        ]

    def next_batch(self, batch, port: int) -> Generator:
        yield Compute(self.ctx.costs.exchange_tuple * len(batch))
        split = getattr(batch, "_split", None)
        if split is None or split[0] != self._route:
            split = batch._split = self._split(batch)
        _, columnar, buckets = split
        if columnar:
            for bucket, emitter in zip(buckets, self._emitters):
                if bucket and emitter.add_columns(bucket):
                    yield from emitter.flush_columns()
            return
        for bucket, emitter in zip(buckets, self._emitters):
            if bucket:
                yield from emitter.emit_rows(bucket)

    def _split(self, batch) -> tuple:
        """``(route, columnar, buckets)``: ``batch`` bucketed by
        partition, each bucket in input order and in the batch's
        backing."""
        partition_of = self._memo.__getitem__
        if batch._columns is None:
            rows = batch.rows
            buckets: list[list] = [[] for _ in self._emitters]
            for partition, row in zip(map(partition_of, map(self._key_of, rows)), rows):
                buckets[partition].append(row)
            return self._route, False, tuple(map(tuple, buckets))
        columns = batch.columns
        if len(self._key_indices) == 1:
            keys = columns[self._key_indices[0]]
        else:
            keys = zip(*[columns[i] for i in self._key_indices])
        partitions = list(map(partition_of, keys))
        # by_column[c][p]: column c's values in partition p.
        by_column = []
        for column in columns:
            buckets = [[] for _ in self._emitters]
            appends = [bucket.append for bucket in buckets]
            for partition, value in zip(partitions, column):
                appends[partition](value)
            by_column.append(buckets)
        return (
            self._route,
            True,
            tuple(tuple(map(tuple, part)) if part[0] else () for part in zip(*by_column)),
        )

    def finish(self) -> Generator:
        for emitter in self._emitters:
            yield from emitter.close()


class _PartitionEmitter(BatchEmitter):
    """One partition's stream out of an exchange: a
    :class:`~repro.engine.stage.BatchEmitter` on one queue that also
    buffers columns, so a column-backed bucket leaves in column-backed
    pages.

    The buffer holds whichever backing the last bucket brought. When
    the backing switches, the pending rows (fewer than a page) are
    converted and kept, never flushed early, so pages are cut at the
    same cumulative row counts, with the same costs and Puts, as a
    stream of row tuples.
    """

    def __init__(self, queue: SimQueue, ctx, width: int, op: str) -> None:
        super().__init__([queue], ctx.page_rows, ctx.costs, width=width, op=op, perf=ctx.perf)
        # One list per column while the buffer holds columns, else None.
        self._columns: list[list] | None = None

    def add_columns(self, columns: Sequence[tuple]) -> bool:
        """Buffer one non-empty bucket of column tuples; whether a full
        page is now due (:meth:`flush_columns`)."""
        buffer = self._columns
        if buffer is None:
            buffer = [list(column) for column in zip(*self._rows)]
            buffer = self._columns = buffer or [[] for _ in range(self.width)]
            self._rows = []
        for pending, column in zip(buffer, columns):
            pending.extend(column)
        self._count += len(columns[0])
        return self._count >= self.batch_rows

    def flush_columns(self) -> Generator:
        """Deliver every full page the column buffer holds."""
        while self._count >= self.batch_rows:
            yield from self._deliver(self._cut_columns(self.batch_rows))

    # The overrides below act on the buffer's backing (converting it,
    # or cutting columns at ``close``), then hand back the generator
    # that does the work, so a row stream pays no extra generator frame
    # per bucket or per flush.

    def emit_rows(self, rows: Sequence[tuple]) -> Generator:
        if self._columns is not None:
            self._rows = list(zip(*self._columns))
            self._columns = None
        return super().emit_rows(rows)

    def _flush_rows(self) -> Generator:
        if self._columns is None:
            return super()._flush_rows()
        return self._deliver(self._cut_columns(min(self._count, self.batch_rows)))

    def _cut_columns(self, take: int) -> RowBatch:
        """The first ``take`` buffered rows, as a column-backed page."""
        buffer = self._columns
        batch = RowBatch.from_columns([tuple(pending[:take]) for pending in buffer], take)
        for pending in buffer:
            del pending[:take]
        self._count -= take
        return batch


class GatherOperator(BatchOperator):
    """Deterministic fan-in: concatenate fragments in port order.

    Driven as one port of ``dop`` queues, it forwards every batch
    through one ordinary emitter. :func:`~repro.engine.operators.api.drive`
    drains the queues sequentially, so the output is the fragments'
    streams concatenated in fragment index order — deterministic, and
    order-preserving when the fragments cover contiguous page ranges.
    """

    def __init__(self, node, ctx, out_queues) -> None:
        super().__init__(node, ctx, out_queues)
        self.make_emitter(len(node.schema))

    def next_batch(self, batch, port: int) -> Generator:
        yield from self.emitter.emit_batch(batch)


def ordered_merge(
    in_queues: Sequence[SimQueue],
    emitter: BatchEmitter,
    key_of,
    sort_tuple: float,
) -> Generator:
    """K-way merge gather: interleave sorted partition streams by key.

    Each input port carries a stream already ordered by ``key_of``
    with key sets disjoint across ports (hash partitions), so merging
    by ``(key, port)`` reproduces the single global order a serial
    operator would emit. Refills block on exactly the port whose next
    row is needed; every refilled batch charges ``sort_tuple`` per row
    for the merge work. The merge is
    :func:`~repro.engine.operators.sort.merge_spans` over records
    ``(key, port, arrival, row)`` — the arrival count keeps the records
    a total order, so two rows are never compared.
    """
    buffers: list = [()] * len(in_queues)
    arrivals = count()

    def refill(port: int) -> Generator:
        """Buffer ``port``'s next batch; leave it empty once closed."""
        while not buffers[port]:
            batch = yield Get(in_queues[port])
            if batch is CLOSED:
                return
            yield Compute(sort_tuple * len(batch))
            rows = batch.rows
            buffers[port] = list(zip(map(key_of, rows), repeat(port), arrivals, rows))

    def emit(span: list) -> Generator:
        return emitter.emit_rows([record[3] for record in span])

    yield from merge_spans(buffers, refill, emit)
    yield from emitter.close()
