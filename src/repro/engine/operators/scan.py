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
selection vector, the selection compresses only the columns an output
reads, and the fused outputs evaluate column-at-a-time over them (a
bare column output passes its column through) — rows are materialized
only if a downstream consumer actually asks for tuples. Predicate and
outputs are compiled against the table's NOT NULL columns
(:meth:`~repro.storage.table.Table.not_null`) when the stage is built.

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

from itertools import compress

from repro.engine.expressions import compile_output, compile_predicate
from repro.engine.operators.api import BatchOperator
from repro.engine.packet import RowBatch
from repro.sim.events import Compute, Sleep
from repro.storage.buffer import table_page_key

__all__ = ["ScanOperator", "fused_memo", "scan_rows"]


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


def fused_memo(table, node, ctx):
    """Attach the fused-page memo of scan ``node`` over ``table``.

    Scans with the same signature (same table, projection, fused
    expressions, cost factor — the identity the sharing layer itself
    keys on) reuse each decoded + filtered page and its cost across
    queries. Each call is one attach, which keeps the signature recent
    under the page budget. A signature's first attach gets ``None``
    (the table keeps a ghost), so a signature read once holds no page.
    """
    return table.fused_cache(
        ("fused", node.signature, ctx.page_rows),
        table.page_count(ctx.page_rows),
        len(node.schema),
    )


class ScanOperator(BatchOperator):
    """Source stage over one base table (0 input ports).

    ``pages`` — a ``(lo, hi)`` page range — makes it one fragment of a
    parallel scan (:func:`~repro.engine.parallel.fragment.partition_ranges`):
    it reads ``[lo, hi)`` in ascending order, on a ranged elevator
    ticket when scans are shared. ``None`` scans the whole table.
    A fragment does not attach the fused memo itself: its builder
    attaches once for the scan node (:func:`fused_memo`) and hands
    every fragment the same ``memo``.
    """

    ports = 0

    def __init__(self, node, ctx, out_queues, pages=None, memo=None):
        super().__init__(node, ctx, out_queues)
        self.pages = pages
        self.table = ctx.catalog.table(node.params["table"])
        self.columns = list(node.params["columns"])
        base_schema = self.table.projected_schema(self.columns)
        notnull = self.table.not_null(self.columns)
        predicate = node.params.get("predicate")
        outputs = node.params.get("outputs")
        self.cost_factor = node.params.get("cost_factor", 1.0)
        self.batch_pred = (
            compile_predicate(predicate, base_schema, notnull) if predicate is not None else None
        )
        self.batch_outs = None
        if outputs is not None:
            self.batch_outs = [compile_output(expr, base_schema, notnull) for _, expr, _ in outputs]
            # A selection compresses only the columns an output reads.
            reads = set()
            for out in self.batch_outs:
                reads.update((out,) if type(out) is int else out.reads)
            self.compressed = [i in reads for i in range(len(self.columns))]
        # Fused-page memo: constructing a whole-table stage is the
        # attach (see fused_memo); the list is this scan's from here
        # on, evicted or not. ``None`` (a signature's first attach)
        # decodes every page and parks none.
        self._memo = fused_memo(self.table, node, ctx) if pages is None else memo
        self.make_emitter(len(node.schema))

    # -- page transforms -------------------------------------------------

    def _page_cost_batch(self, slices):
        """The CPU cost of one page (its column slices) and the page as
        a transformed batch."""
        costs = self.ctx.costs
        n = len(slices[0])
        cost = costs.scan_tuple * n
        outs = self.batch_outs
        cols, kept = slices, n
        if self.batch_pred is not None:
            cost += costs.filter_tuple * self.cost_factor * n
            flags = self.batch_pred(slices, n)
            kept = flags.count(True)
            if outs is None:
                return cost, RowBatch.from_columns(slices, n).select(flags, kept)
            if not kept:
                return cost, RowBatch.from_columns([()] * len(outs), 0)
            if kept < n:
                cols = [
                    tuple(compress(col, flags)) if read else None
                    for col, read in zip(slices, self.compressed)
                ]
        if outs is None:
            return cost, RowBatch.from_columns(slices, n)
        cost += costs.project_tuple * self.cost_factor * kept * len(outs)
        # Tuples, like the slices: this batch may be parked in the memo.
        columns = [cols[out] if type(out) is int else tuple(out(cols, kept)) for out in outs]
        return cost, RowBatch.from_columns(columns, kept)

    def _load_page(self, index):
        """One physical page as a transformed batch plus its CPU cost."""
        memo = self._memo
        if memo is not None:
            hit = memo[index]
            if hit is not None:
                return hit
        slices = self.table.column_slices(index, self.columns, self.ctx.page_rows)
        result = self._page_cost_batch(slices)
        if memo is not None:
            memo[index] = result
        return result

    # -- protocol --------------------------------------------------------

    def open(self):
        ctx = self.ctx
        n_pages = self.table.page_count(ctx.page_rows)
        lo, hi = self.pages or (0, n_pages)
        if ctx.scans is None or ctx.pool is None or hi == lo:
            yield from self._sequential_scan(lo, hi)
            return
        if self.pages is None:
            # Ride the table's shared elevator cursor from its head.
            ticket = ctx.scans.attach(self.table.name, n_pages)
        else:
            # A ranged ticket walks [lo, hi) in order, whatever the head.
            ticket = ctx.scans.attach(self.table.name, n_pages, start=lo, span=hi - lo)
        yield from self._ride_elevator(ticket)

    def _sequential_scan(self, lo, hi):
        """The seed's scan: pages ``lo`` to ``hi`` in order, synchronous
        misses."""
        ctx = self.ctx
        pool = ctx.pool
        emitter = self.emitter
        name = self.table.name
        for index in range(lo, hi):
            cost, batch = self._load_page(index)
            io = 0.0
            if pool is not None and not pool.access(table_page_key(name, index)):
                io = ctx.costs.io_page
            yield Compute(cost + io, io=io)
            if batch._n:
                yield from emitter.emit_batch(batch)

    def _ride_elevator(self, ticket):
        """The per-page elevator protocol over an attached ticket — a
        full revolution from the head, or a fragment's ranged ticket on
        the same cursor (so fragments convoy with full scans)."""
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
