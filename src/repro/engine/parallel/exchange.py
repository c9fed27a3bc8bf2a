"""Exchange, gather, and ordered-merge stages (Gamma-style).

The exchange subsystem turns one logical operator into ``dop``
cooperating *fragments* connected by repartitioning queues:

* :class:`ExchangeOperator` — the producer half of a repartitioning.
  It hashes each row's partition key and routes the row to one of
  ``dop`` partition queues through a *dedicated* per-partition emitter
  (unlike an ordinary stage's emitter, which multiplexes every batch
  to every consumer). Rows leave each partition stream in input order,
  which is what the bit-identity argument below rests on. Every batch
  is routed as columns and leaves as column-backed pages, so a
  partition-wise aggregate folds them without a transpose.
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
    so the hash is paid once per distinct key per engine. One plain
    :class:`~repro.engine.stage.BatchEmitter` per output queue keeps
    partition streams independent: a batch is bucketed in input order
    and each bucket rides its own emitter, so a consumer sees only its
    partition, in producer order.

    A batch is split from its columns, whatever its backing: one tuple
    of column tuples per partition, taken from its key columns without
    building a row tuple, and each emitter buffers them as columns, so
    every partition leaves as column-backed pages. A row-backed batch
    (a join's or a sort's output) is transposed once, by
    :attr:`~repro.engine.packet.RowBatch.columns`.

    The buckets are a pure function of the batch and the route
    ``(key_indices, fanout)``, so the exchange keeps them on the batch
    (its ``_split`` slot: the route and the buckets, ``()`` for a
    partition that gets nothing). A page the fused memo parks reaches
    the exchange as the same batch every run, and is then split once,
    not once per run. The simulated ``exchange_tuple`` charge is paid
    every time either way.
    """

    ports = 1

    def __init__(self, node, ctx, out_queues, key_indices, memo: PartitionMemo) -> None:
        super().__init__(node, ctx, out_queues)
        self._key_indices = tuple(key_indices)
        self._memo = memo
        self._route = (self._key_indices, len(out_queues))
        width = len(node.schema)
        self.emitters = [
            BatchEmitter(
                [queue],
                ctx.page_rows,
                ctx.costs,
                width=width,
                op=f"{node.op_id}.part{p}",
                perf=ctx.perf,
            )
            for p, queue in enumerate(out_queues)
        ]

    def next_batch(self, batch, port: int) -> Generator:
        yield Compute(self.ctx.costs.exchange_tuple * len(batch))
        split = getattr(batch, "_split", None)
        if split is None or split[0] != self._route:
            split = batch._split = self._split(batch)
        for bucket, emitter in zip(split[1], self.emitters):
            if bucket:
                yield from emitter.emit_columns(bucket)

    def _split(self, batch) -> tuple:
        """``(route, buckets)``: ``batch``'s columns bucketed by
        partition, each bucket in input order."""
        partition_of = self._memo.__getitem__
        columns = batch.columns
        if len(self._key_indices) == 1:
            keys = columns[self._key_indices[0]]
        else:
            keys = zip(*[columns[i] for i in self._key_indices])
        # One pass over the keys finds each partition's row positions;
        # each column is then gathered per partition in C.
        positions = [[] for _ in self.emitters]
        appends = [part.append for part in positions]
        for position, partition in enumerate(map(partition_of, keys)):
            appends[partition](position)
        return self._route, tuple(_gather(part, columns) if part else () for part in positions)


def _gather(positions: list, columns: Sequence[Sequence]) -> tuple:
    """The values at ``positions`` (non-empty) of every column, as a
    tuple of column tuples."""
    if len(positions) == 1:
        (position,) = positions
        return tuple((column[position],) for column in columns)
    return tuple(map(itemgetter(*positions), columns))


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
