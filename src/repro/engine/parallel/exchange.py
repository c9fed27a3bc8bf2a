"""Exchange, gather, and ordered-merge stages (Gamma-style).

The exchange subsystem turns one logical operator into ``dop``
cooperating *fragments* connected by repartitioning queues:

* :class:`ExchangeOperator` — the producer half of a repartitioning.
  It hashes each row's partition key and routes the row to one of
  ``dop`` partition queues through a *dedicated* per-partition
  :class:`~repro.engine.stage.BatchEmitter` (unlike an ordinary
  stage's emitter, which multiplexes every batch to every consumer).
  Rows leave each partition stream in input order, which is what the
  bit-identity argument below rests on.
* :class:`GatherOperator` — deterministic fan-in: drains its input
  ports strictly in port order and concatenates. For contiguous
  page-range fragments this reproduces the serial scan's row order
  exactly; for partition-wise joins it fixes a deterministic (if
  different from serial) order, keeping the row *set* identical.
* :func:`ordered_merge` — the k-way merge gather used above
  partition-wise aggregates: each partition emits its groups in
  ``_sort_key`` order over *disjoint* key sets, so merging by key
  reproduces the serial aggregate's output stream bit for bit. It
  advances one received batch per step through
  :func:`~repro.engine.operators.sort.merge_spans`, the span kernel
  the external sort merges its runs with.
* :func:`drive_fanin` — a :func:`~repro.engine.operators.api.drive`
  variant that maps several physical input queues onto one logical
  operator port (the partition-wise consumer reads ``dop`` partition
  queues as its single logical input; the partition-wise join reads
  ``dop`` build queues then ``dop`` probe queues). Queues of a
  logical port drain sequentially in fragment order — with producer
  fragments running concurrently into generously sized partition
  queues, the drain order fixes determinism without serializing the
  producers.

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
    "EXCHANGE_SALT",
    "ExchangeOperator",
    "GatherOperator",
    "drive_fanin",
    "ordered_merge",
]

# Distinct from the governed operators' internal partitioning salts
# (0, then recursion depth), so an exchange's partition assignment does
# not correlate with a downstream spilling operator's fanout buckets.
EXCHANGE_SALT = 97


class ExchangeOperator(BatchOperator):
    """Hash-repartition one fragment's output across ``dop`` queues.

    ``node`` is the plan node whose output is being repartitioned
    (schema and op_id provide the width and the stage name);
    ``key_indices`` are the partition-key columns. One emitter per
    output queue keeps partition streams independent: a batch's key
    column is extracted once and mapped to partition ids through a
    bounded :class:`~repro.engine.operators.partitioning.PartitionMemo`
    (the hash is paid once per distinct key), rows are bucketed in
    input order, and each bucket rides its own emitter, so a consumer
    sees only its partition, in producer order.
    """

    ports = 1

    def __init__(self, node, ctx, out_queues, key_indices) -> None:
        super().__init__(node, ctx, out_queues)
        # One index partitions on the bare value, several on their tuple.
        self._key_of = itemgetter(*key_indices)
        self._memo = PartitionMemo(EXCHANGE_SALT, len(out_queues))
        width = len(node.schema)
        self._emitters = [
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
        rows = batch.rows
        buckets: list[list] = [[] for _ in self._emitters]
        partitions = map(self._memo.__getitem__, map(self._key_of, rows))
        for partition, row in zip(partitions, rows):
            buckets[partition].append(row)
        for bucket, emitter in zip(buckets, self._emitters):
            if bucket:
                yield from emitter.emit_rows(bucket)

    def finish(self) -> Generator:
        for emitter in self._emitters:
            yield from emitter.close()


class GatherOperator(BatchOperator):
    """Deterministic fan-in: concatenate fragments in port order.

    Driven over ``dop`` input queues, it forwards every batch through
    one ordinary emitter. :func:`~repro.engine.operators.api.drive`
    drains the ports sequentially, so the output is the fragments'
    streams concatenated in fragment index order — deterministic, and
    order-preserving when the fragments cover contiguous page ranges.
    """

    def __init__(self, node, ctx, out_queues, ports: int) -> None:
        super().__init__(node, ctx, out_queues)
        self.ports = ports
        self.make_emitter(len(node.schema))

    def next_batch(self, batch, port: int) -> Generator:
        yield from self.emitter.emit_batch(batch)


def drive_fanin(
    op: BatchOperator,
    queue_groups: Sequence[tuple[int, Sequence[SimQueue]]],
) -> Generator:
    """Drive ``op`` with several physical queues per logical port.

    ``queue_groups`` lists ``(logical_port, queues)`` in drain order.
    Each logical port's queues drain sequentially (fragment order —
    the determinism anchor); ``close_port`` fires once per logical
    port, after its last queue closes, so stop-&-go operators (build
    seal, aggregate finalize) see the same lifecycle as under
    :func:`~repro.engine.operators.api.drive`.
    """
    yield from op.open()
    for logical_port, queues in queue_groups:
        for queue in queues:
            while True:
                batch = yield Get(queue)
                if batch is CLOSED:
                    break
                yield from op.next_batch(batch, logical_port)
        yield from op.close_port(logical_port)
    yield from op.finish()


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
