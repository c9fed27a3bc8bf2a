"""Table scan stage — plain, fused, or cooperative (elevator).

Reads a base table page by page (projection pushed into storage),
charging ``scan_tuple`` per tuple read. A *fused* scan additionally
evaluates a predicate (``filter_tuple`` per tuple) and computes output
expressions (``project_tuple`` per surviving tuple per expression)
inside the same stage, mirroring the paper's scan stages which apply
the query's predicates before handing pages to the consumer.

The page never leaves columnar form: the storage layer hands back raw
column slices (:meth:`~repro.storage.table.Table.column_slices`), the fused
predicate runs as one batch-compiled comprehension producing a
selection vector, and the fused outputs evaluate column-at-a-time over
the selected columns — rows are materialized only if a downstream
consumer actually asks for tuples.

When the engine carries a :class:`~repro.storage.buffer.BufferPool`,
every table page goes through it: a resident page is a hit (CPU-only,
as in the seed), a cold page charges ``io_page`` and is admitted. A
shared scan pivot therefore pays cold misses *once* for all M of its
consumers — a sharing benefit the CPU-only model cannot see — while M
independent scans may each miss (subject to what the pool retains).

When the engine additionally carries a
:class:`~repro.storage.shared_scan.ScanShareManager`, the scan rides
the table's **elevator cursor** instead of always starting at page 0:
it attaches at the cursor's current position, walks the table in
circular order, and completes after one full revolution — so
concurrent scans of the same table share one physical pass, and the
cursor's async prefetch overlaps the next pages' reads with this
page's CPU work (charged as the ``io`` component of the stage's
``Compute``). The emitted *row set* is identical to an independent
scan's; only the order rotates to the attach offset, which every
order-insensitive consumer (aggregation, hash join, sort) absorbs.

A manager with a drift bound adds *pacing*: before driving the
elevator head onto a new physical page, the stage asks
:meth:`~repro.storage.shared_scan.ScanShareManager.throttle_wait`.
A positive answer means some convoy member lags too far behind and
the head must pause — the stage sleeps that long off-processor
(``Sleep(throttle=True)``, the ``drift_throttle`` stall category in
stage reports) and retries, which is what lets stragglers close up
on resident pages instead of degrading to private cold reads.

The scan is the classic sharing pivot for scan-heavy queries: with M
consumers attached, its emitter multiplexes every page M ways.
"""

from __future__ import annotations

from repro.engine.expressions import compile_batch
from repro.engine.operators.api import BatchOperator
from repro.engine.packet import RowBatch
from repro.sim.events import Compute, Sleep
from repro.storage.buffer import table_page_key

__all__ = ["ScanOperator", "scan_rows"]


def scan_rows(table, columns, predicate_fn=None, output_fns=None):
    """Pure function: the (possibly fused) scan's output rows."""
    rows = []
    for page in table.scan_pages(columns=list(columns) if columns else None):
        batch = page.rows
        if predicate_fn is not None:
            batch = [row for row in batch if predicate_fn(row)]
        if output_fns is not None:
            batch = [tuple(fn(row) for fn in output_fns) for row in batch]
        rows.extend(batch)
    return rows


class ScanOperator(BatchOperator):
    """Source stage over one base table (0 input ports)."""

    ports = 0

    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        self.table = ctx.catalog.table(node.params["table"])
        self.columns = list(node.params["columns"])
        base_schema = self.table.projected_schema(self.columns)
        predicate = node.params.get("predicate")
        outputs = node.params.get("outputs")
        self.cost_factor = node.params.get("cost_factor", 1.0)
        self.batch_pred = compile_batch(predicate, base_schema) if predicate is not None else None
        self.batch_outs = (
            [compile_batch(expr, base_schema) for _, expr, _ in outputs]
            if outputs is not None
            else None
        )
        # Fused-page memo: scans with the same signature (same table,
        # projection, fused expressions, cost factor — the identity the
        # sharing layer itself keys on) reuse each decoded + filtered
        # page and its cost across queries. Constructing the stage is
        # the attach that keeps the signature recent under the page
        # budget; the list is this scan's from here on, evicted or not.
        self._memo = self.table.fused_cache(
            ("fused", node.signature, ctx.page_rows),
            self.table.page_count(ctx.page_rows),
            len(node.schema),
        )
        self.make_emitter(len(node.schema))

    # -- page transforms -------------------------------------------------

    def _page_cost_batch(self, batch):
        """CPU cost of one columnar page and its transformed batch."""
        costs = self.ctx.costs
        n = batch._n
        cost = costs.scan_tuple * n
        if self.batch_pred is not None:
            cost += costs.filter_tuple * self.cost_factor * n
            flags = self.batch_pred(batch.columns, n)
            kept = sum(map(bool, flags))
            batch = batch.select(flags, kept)
        if self.batch_outs is not None and len(batch):
            kept = len(batch)
            cost += costs.project_tuple * self.cost_factor * kept * len(self.batch_outs)
            cols = batch.columns
            # Tuples, like the slices: this batch is parked in the memo.
            batch = RowBatch.from_columns([tuple(fn(cols, kept)) for fn in self.batch_outs], kept)
        return cost, batch

    def _load_page(self, index):
        """One physical page as a transformed batch plus its CPU cost."""
        memo = self._memo
        hit = memo[index]
        if hit is not None:
            return hit
        slices = self.table.column_slices(index, self.columns, self.ctx.page_rows)
        batch = RowBatch.from_columns(slices, len(slices[0]))
        result = self._page_cost_batch(batch)
        memo[index] = result
        return result

    # -- protocol --------------------------------------------------------

    def open(self):
        ctx = self.ctx
        if ctx.scans is not None and ctx.pool is not None and len(self.table):
            yield from self._elevator_scan()
        else:
            yield from self._sequential_scan()

    def _sequential_scan(self):
        """The seed's scan: page 0 to the end, synchronous misses."""
        ctx = self.ctx
        pool = ctx.pool
        emitter = self.emitter
        name = self.table.name
        for index in range(self.table.page_count(ctx.page_rows)):
            cost, batch = self._load_page(index)
            io = 0.0
            if pool is not None and not pool.access(table_page_key(name, index)):
                io = ctx.costs.io_page
            yield Compute(cost + io, io=io)
            if batch._n:
                yield from emitter.emit_batch(batch)

    def _elevator_scan(self):
        """Ride the table's shared elevator cursor (see shared_scan)."""
        ticket = self.ctx.scans.attach(self.table.name, self.table.page_count(self.ctx.page_rows))
        yield from self._ride_elevator(ticket)

    def _ride_elevator(self, ticket):
        """The per-page elevator protocol over an attached ticket.

        Shared with the parallel scan fragments, which attach *ranged*
        tickets (fixed start offset, page-range span) to the same
        cursor and therefore convoy with full scans of the table.
        """
        ctx = self.ctx
        manager = ctx.scans
        emitter = self.emitter
        io_page = ctx.costs.io_page
        previous_cpu = 0.0
        try:
            while not ticket.exhausted:
                # Pacing hook: a drift-bounded head pauses (off-
                # processor) until the convoy closes up, then re-checks.
                wait = manager.throttle_wait(ticket, io_page)
                if wait > 0.0:
                    yield Sleep(wait, throttle=True)
                    continue
                cost, batch = self._load_page(ticket.page_index)
                stall = manager.acquire(ticket, io_page, cpu_credit=previous_cpu)
                yield Compute(cost + stall, io=stall)
                previous_cpu = cost
                ticket.advance()
                if batch._n:
                    yield from emitter.emit_batch(batch)
        finally:
            manager.detach(ticket)
