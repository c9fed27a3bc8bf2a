"""Sort stage (stop-&-go), with grant-governed external merge.

Without memory governance (``ctx.memory is None``) the stage buffers
its entire input, sorts by the key list, then streams the sorted rows
out — exactly as the seed did. Multi-key ordering with mixed
ascending/descending directions is implemented as stable sorts applied
from the least to the most significant key group, each group compared
through one composite ``itemgetter`` key.

With a :class:`~repro.engine.memory.MemoryBroker` attached it becomes
an **external-merge sort** with **replacement-selection** run
generation: a selection heap of ``grant.pages`` pages of rows emits
its minimum to the current run through a
:class:`~repro.storage.buffer.SpillFile` (``spill_page`` per page)
each time a new row must be admitted. An incoming row whose key is
not below the last row written joins the current run's heap; one that
is goes to a side buffer for the *next* run. The current run ends
only when every held row belongs to the next run, so runs average
twice the memory budget on random input and a single run covers
arbitrarily long sorted stretches — the tournament-tree property that
makes partially ordered inputs cheap (fewer runs, fewer merge
passes). Reverse-ordered input degenerates to one-memory-load runs,
the old cut-a-run-per-budget behavior, so ``ceil(n / budget_rows)``
is the run-count ceiling.

After input closes, the runs are merged with a budget-bounded k-way
merge: the fan-in is ``grant.pages - 1`` (one page reserved for
output) but never below 2 — at 1- and 2-page grants a two-way merge
needs three working pages, so the merge floor overcommits and the
broker records it, the same degrade-don't-fail contract as the hash
join's recursion floor. When the run count exceeds the fan-in the
runs are merged in batches into longer runs — recursive merge
passes, classic external-sort arithmetic
(:func:`plan_merge_passes`). Run read-back streams through
:class:`~repro.storage.spill_cursor.SpillCursor`, so the merge's
per-page CPU drains the next spill pages' ``io_page`` cost instead
of stalling on it.

The output is *identical* to the in-memory path at every budget —
including tie order. Every spilled row carries its arrival sequence
number; the heap orders by ``(key, seq)`` and the merge breaks key
ties by that sequence number, which reproduces the global stable sort
even though replacement selection can place a later-arriving row in
an earlier run than an equal-keyed predecessor. Order-sensitive
consumers (limit, merge join) therefore see exactly the rows they
would have seen unbounded.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from repro.engine.operators.api import BatchOperator
from repro.errors import EngineError
from repro.sim.events import Compute
from repro.storage.spill_cursor import SpillCursor

__all__ = ["SortOperator", "sort_rows", "merge_key", "plan_merge_passes"]


def _key_groups(schema, keys):
    """Column-index groups of consecutive keys sharing a direction.

    ``[("a", True), ("b", True), ("c", False)]`` becomes
    ``[([ia, ib], True), ([ic], False)]``: one stable multi-column sort
    per direction group instead of one full pass per key.
    """
    groups: list[tuple[list[int], bool]] = []
    for name, ascending in keys:
        index = schema.index_of(name)
        ascending = bool(ascending)
        if groups and groups[-1][1] == ascending:
            groups[-1][0].append(index)
        else:
            groups.append(([index], ascending))
    return groups


def sort_rows(rows, schema, keys):
    """Pure function: rows ordered by ``(column, ascending)`` keys.

    Stable sorts applied from the least to the most significant key
    group; within a group a single ``itemgetter`` composite key avoids
    re-scanning all rows once per column.
    """
    ordered = list(rows)
    for indices, ascending in reversed(_key_groups(schema, keys)):
        ordered.sort(key=itemgetter(*indices), reverse=not ascending)
    return ordered


class _Descending:
    """Order-inverting wrapper for descending keys in the merge heap.

    Descending string (or other non-negatable) columns cannot be
    expressed by numeric negation, so the k-way merge wraps them in a
    comparator that flips ``<`` while keeping ``==``.
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other) -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return self.value == other.value


def merge_key(schema, keys):
    """A total-order key function equivalent to :func:`sort_rows`.

    ``sorted(rows, key=merge_key(schema, keys))`` produces exactly
    ``sort_rows(rows, schema, keys)`` (both are stable); the external
    merge uses it to compare run heads.
    """
    parts = tuple((schema.index_of(name), bool(asc)) for name, asc in keys)

    def key(row):
        return tuple(row[i] if asc else _Descending(row[i]) for i, asc in parts)

    return key


def plan_merge_passes(run_count: int, fan_in: int) -> int:
    """Merge passes (including the final one) the grant implies.

    With ``r`` initial runs and fan-in ``f``, every intermediate pass
    shrinks the run count to ``ceil(r / f)`` until at most ``f`` runs
    remain for the final, emitting pass.
    """
    if fan_in < 2:
        raise EngineError(f"merge fan-in must be >= 2, got {fan_in}")
    if run_count <= 0:
        return 0
    passes = 1
    while run_count > fan_in:
        run_count = -(-run_count // fan_in)
        passes += 1
    return passes


class SortOperator(BatchOperator):
    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        self.schema = node.children[0].schema
        self.keys = node.params["keys"]
        self.buffered: list[tuple] = []
        self.grant = None
        self.runs: list = []
        self.spilled_pages = 0
        self.make_emitter(len(node.schema))

    def open(self):
        ctx = self.ctx
        if ctx.memory is not None:
            self.grant = ctx.memory.grant(
                self.node.op_id, self.node.params.get("mem_pages")
            )
            self.budget_rows = self.grant.pages * ctx.page_rows
            self.key_fn = merge_key(self.schema, self.keys)
            # Replacement-selection state: the current run's selection
            # heap of (key, seq, row), rows deferred to the next run,
            # the page-sized output buffer, and the (key, seq) floor of
            # the last row written to the current run.
            self.select_heap: list = []
            self.deferred: list = []
            self.run_buffer: list = []
            self.run_file = None
            self.run_floor = None
            self._seq = 0
        return
        yield  # pragma: no cover

    def next_batch(self, batch, port):
        yield Compute(self.ctx.costs.sort_tuple * len(batch))
        if self.grant is None:
            self.buffered.extend(batch.rows)
            return
        heap = self.select_heap
        deferred = self.deferred
        key_fn = self.key_fn
        budget = self.budget_rows
        seq = self._seq
        for row in batch.rows:
            entry = (key_fn(row), seq, row)
            seq += 1
            if len(heap) + len(deferred) < budget:
                heapq.heappush(heap, entry)
                continue
            # Memory full: release one selection, then admit the row
            # into whichever run its key still fits.
            yield from self._select_one()
            if (entry[0], entry[1]) < self.run_floor:
                deferred.append(entry)
            else:
                heapq.heappush(heap, entry)
        self._seq = seq
        self.grant.resize_used(
            -(-(len(heap) + len(deferred)) // self.ctx.page_rows)
        )

    def finish(self):
        if self.grant is not None:
            yield from self._governed_finish()
            return
        emitter = self.emitter
        if self.buffered:
            # The in-memory sort itself; the per-tuple constant subsumes
            # the log factor at the engine's buffer sizes.
            yield Compute(self.ctx.costs.sort_tuple * len(self.buffered))
            yield from emitter.emit_rows(
                sort_rows(self.buffered, self.schema, self.keys)
            )
        yield from emitter.close()

    # -- memory-governed external-merge sort -----------------------------

    def _select_one(self):
        """Release one replacement selection into the current run.

        When the current run's heap has drained, the run is sealed and
        the deferred rows become the next run's heap. Spilled rows are
        tagged with their arrival sequence number so the merge can
        reproduce the stable tie order across runs.
        """
        ctx = self.ctx
        heap = self.select_heap
        if not heap:
            yield from self._close_run()
            heap.extend(self.deferred)
            heapq.heapify(heap)
            self.deferred.clear()
        key, seq, row = heapq.heappop(heap)
        self.run_floor = (key, seq)
        if self.run_file is None:
            self.run_file = ctx.pool.spill_file(ctx.page_rows)
            self.runs.append(self.run_file)
        self.run_buffer.append(row + (seq,))
        if len(self.run_buffer) >= ctx.page_rows:
            yield from self._flush_run_page()

    def _flush_run_page(self):
        """Write the buffered output page; cost charged per page — the
        engine's cost granularity everywhere else — so a long run never
        stalls the producer behind one giant compute burst."""
        costs = self.ctx.costs
        chunk = self.run_buffer
        self.run_buffer = []
        written = self.run_file.append_rows(chunk)
        yield Compute(costs.sort_tuple * len(chunk) + costs.spill_page * written)

    def _close_run(self):
        if self.run_file is None:
            return
        if self.run_buffer:
            yield from self._flush_run_page()
        written = self.run_file.flush()
        if written:
            yield Compute(self.ctx.costs.spill_page * written)
        self.spilled_pages += self.run_file.page_count
        self.run_file = None
        self.run_floor = None

    def _governed_finish(self):
        ctx = self.ctx
        costs = ctx.costs
        grant = self.grant
        emitter = self.emitter

        if not self.runs:
            # Everything fit in the grant: the in-memory path, bit-for-bit.
            # Heap entries sort by (key, seq) — the stable key order.
            if self.select_heap:
                yield Compute(costs.sort_tuple * len(self.select_heap))
                yield from emitter.emit_rows(
                    [row for _, _, row in sorted(self.select_heap)]
                )
            grant.note(sort_runs=0, merge_passes=0, spilled_pages=0)
            yield from emitter.close()
            grant.close()
            return

        while self.select_heap or self.deferred:
            yield from self._select_one()
        yield from self._close_run()
        grant.resize_used(0)

        # Merge: fan-in bounded by the grant (one page reserved for the
        # output buffer); recursive passes while runs outnumber it. The
        # floor of 2 overcommits 1- and 2-page grants (the broker
        # records it) — merging any narrower is impossible.
        fan_in = max(2, grant.pages - 1)
        runs = self.runs
        initial_runs = len(runs)
        merge_passes = 0
        while len(runs) > fan_in:
            merge_passes += 1
            next_runs: list = []
            for start in range(0, len(runs), fan_in):
                batch = runs[start : start + fan_in]
                if len(batch) == 1:
                    # A trailing singleton batch is already a sorted run;
                    # copying it through the merge would be pure waste.
                    next_runs.append(batch[0])
                    continue
                out_file = ctx.pool.spill_file(ctx.page_rows)
                written = yield from _merge_runs(
                    batch, ctx, self.key_fn, grant, out_file=out_file
                )
                self.spilled_pages += written
                next_runs.append(out_file)
            runs = next_runs
        merge_passes += 1
        yield from _merge_runs(runs, ctx, self.key_fn, grant, emitter=emitter)
        grant.resize_used(0)
        grant.note(
            sort_runs=initial_runs,
            merge_passes=merge_passes,
            spilled_pages=self.spilled_pages,
        )
        yield from emitter.close()
        grant.close()


def _merge_runs(files, ctx, key_fn, grant, out_file=None, emitter=None):
    """K-way merge of sorted runs; returns spill pages written.

    Exactly one of ``out_file`` (intermediate pass) and ``emitter``
    (final pass) is used. Input runs stream through
    :class:`SpillCursor`s — one sequential prefetch pipeline per run —
    with the merge's per-page CPU as the drain credit, and are dropped
    once consumed. Run rows carry a trailing arrival sequence number
    (unique across the whole input); key ties break by it, preserving
    the global stable order even when replacement selection has placed
    a later arrival in an earlier run. Intermediate passes keep the
    tag; the final pass strips it before emitting.
    """
    costs = ctx.costs
    cursors = [SpillCursor(f, costs.io_page, ctx.spill_prefetch) for f in files]
    buffers: list[list] = [[] for _ in files]
    last_clock = [0.0] * len(files)
    clock = 0.0
    written = 0
    # One page of working memory per input run, plus the output buffer.
    grant.resize_used(len(files) + 1)

    def fetch(index: int):
        nonlocal clock
        cursor = cursors[index]
        if cursor.exhausted:
            return
        credit = clock - last_clock[index]
        last_clock[index] = clock
        page, stall = cursor.next_page(credit)
        cpu = costs.sort_tuple * len(page)
        clock += cpu
        yield Compute(cpu + stall, io=stall)
        rows = list(page.rows)
        rows.reverse()
        buffers[index] = rows

    heap: list = []
    for index in range(len(files)):
        yield from fetch(index)
        if buffers[index]:
            row = buffers[index].pop()
            heapq.heappush(heap, (key_fn(row), row[-1], index, row))

    while heap:
        _, _, index, row = heapq.heappop(heap)
        if out_file is not None:
            pages_out = out_file.append_rows((row,))
            if pages_out:
                written += pages_out
                yield Compute(costs.spill_page * pages_out)
        else:
            yield from emitter.emit_rows((row[:-1],))
        if not buffers[index]:
            yield from fetch(index)
        if buffers[index]:
            nxt = buffers[index].pop()
            heapq.heappush(heap, (key_fn(nxt), nxt[-1], index, nxt))

    if out_file is not None:
        pages_out = out_file.flush()
        if pages_out:
            written += pages_out
            yield Compute(costs.spill_page * pages_out)
    for spent in files:
        spent.drop()
    return written
