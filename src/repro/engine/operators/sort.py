"""Sort stage (stop-&-go), with grant-governed external merge.

Without memory governance (``ctx.memory is None``) the stage buffers
its entire input, sorts by the key list, then streams the sorted rows
out — exactly as the seed did. Multi-key ordering with mixed
ascending/descending directions is implemented as stable sorts applied
from the least to the most significant key group, each group compared
through one composite ``itemgetter`` key.

With a :class:`~repro.engine.memory.MemoryBroker` attached it becomes
an **external-merge sort**. Each arriving batch is turned into **sort
records** ``(key, seq, row)`` in one column-wise pass
(:func:`batch_key_builder`): ``key`` is the composite sort key, built
once, and ``seq`` the row's arrival sequence number. Records are what
the selection heap holds *and what the run files store* — one record
per row, so page counts are those of the rows — and no merge pass
re-derives a key or strips a tag.

Run generation is **replacement selection**: a selection heap of
``grant.pages`` pages of records emits its minimum to the current run
through a :class:`~repro.storage.buffer.SpillFile` (``spill_page`` per
page) each time a new row must be admitted. An incoming record not
below the one being written joins the current run's heap; one that is
goes to a side buffer for the *next* run. The current run ends only
when every held record belongs to the next run, so runs average twice
the memory budget on random input and a single run covers arbitrarily
long sorted stretches — the tournament-tree property that makes
partially ordered inputs cheap (fewer runs, fewer merge passes).
Reverse-ordered input degenerates to one-memory-load runs, so
``ceil(n / budget_rows)`` is the run-count ceiling.

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

The merge itself is :func:`merge_spans`, shared with the parallel
fabric's ordered gather
(:func:`~repro.engine.parallel.exchange.ordered_merge`): one step per
*fetched page* instead of one heap operation per row, making the same
fetches at the same points of the output stream, so the simulated
event sequence is that of a row-at-a-time heap merge.

The output is *identical* to the in-memory path at every budget —
including tie order. Records order by ``(key, seq)``, a total order
(``seq`` is unique), which reproduces the global stable sort even
though replacement selection can place a later-arriving row in an
earlier run than an equal-keyed predecessor. Order-sensitive
consumers (limit, merge join) therefore see exactly the rows they
would have seen unbounded.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from itertools import count
from operator import itemgetter, neg

from repro.engine.operators.api import BatchOperator
from repro.errors import EngineError
from repro.sim.events import Compute
from repro.storage.schema import DataType
from repro.storage.spill_cursor import SpillCursor

__all__ = [
    "SortOperator",
    "sort_rows",
    "batch_key_builder",
    "merge_spans",
    "plan_merge_passes",
]


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
    """Order-inverting wrapper for descending keys negation cannot express.

    A descending numeric column is negated (:func:`_negated`); a
    descending string column has no such image, so its values are
    wrapped in a comparator that flips ``<`` while keeping ``==``.
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other) -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return self.value == other.value


_NEGATABLE = (DataType.INT, DataType.FLOAT, DataType.DATE)


def _negate(value):
    """Order-reversing image of one value; NULL is its own image."""
    if value is None:
        return None
    try:
        return -value
    except TypeError:
        return _Descending(value)


def _negated(column):
    """A descending numeric column as ascending keys: ``-value``.

    Negation is exact, order-reversing and equality-preserving for
    ints, floats (``-0.0``, infinities and NaN included) and date
    ordinals, and the comparison stays in C. The slow arm passes NULLs
    through un-negated — a lone or all-NULL key must sort, and a mixed
    one must raise the ``TypeError`` :func:`sort_rows` raises — and
    wraps the one thing a numeric dtype can mislabel: ``min``/``max``
    of a string column is declared FLOAT.
    """
    try:
        return list(map(neg, column))
    except TypeError:
        return [_negate(value) for value in column]


def _wrapped(column):
    return map(_Descending, column)


def batch_key_builder(schema, keys):
    """``columns -> keys``: a batch's composite sort keys, column-wise.

    The returned function takes a batch's column lists and returns an
    iterator of one key tuple per row, built in one ``zip`` over the
    key columns. The keys are a total-order equivalent of
    :func:`sort_rows`: ``sorted`` by ``(key, arrival index)`` is exactly
    ``sort_rows(rows, schema, keys)``. How a descending column is
    inverted is read from the schema — negation for INT/FLOAT/DATE,
    :class:`_Descending` for STR.
    """
    parts = []
    for name, ascending in keys:
        index = schema.index_of(name)
        if ascending:
            invert = None
        elif schema.columns[index].dtype in _NEGATABLE:
            invert = _negated
        else:
            invert = _wrapped
        parts.append((index, invert))

    def build(columns):
        return zip(
            *[
                columns[index] if invert is None else invert(columns[index])
                for index, invert in parts
            ]
        )

    return build


def merge_spans(buffers, refill, sink):
    """K-way merge of sorted record streams, one step per fetched page.

    ``buffers[i]`` holds input *i*'s buffered records (a sorted
    sequence of tuples; no two records of the whole merge compare
    equal). ``refill(i)`` is a generator that replaces ``buffers[i]``
    with the input's next page, leaving it empty once the input has
    ended; ``sink(span)`` is a generator that consumes the next sorted
    stretch of the output. Both yield whatever simulator requests their
    work costs; the kernel itself yields nothing.

    The input whose buffered page *ends first* is the one a
    row-at-a-time merge would have to fetch next, and every buffered
    record up to that page's last can be released before the fetch. So
    each step cuts that prefix from every input by bisection, orders
    the concatenation with one ``list.sort()`` — timsort detects the
    presorted pieces and merges them in C — hands the span to the sink
    and refills exactly that input: the same fetches, at the same
    points of the output stream, as one heap operation per row.
    """
    live = []
    for index in range(len(buffers)):
        yield from refill(index)
        if buffers[index]:
            live.append(index)
    while live:
        first = min(live, key=lambda index: buffers[index][-1])
        bound = buffers[first][-1]
        span: list = []
        for index in live:
            page = buffers[index]
            cut = bisect_right(page, bound)
            if cut:
                span += page[:cut]
                buffers[index] = page[cut:]
        span.sort()
        yield from sink(span)
        yield from refill(first)
        if not buffers[first]:
            live.remove(first)


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
            self.build_keys = batch_key_builder(self.schema, self.keys)
            # Replacement-selection state, all of it sort records
            # (key, seq, row): the records held for the current run (a
            # plain list until the grant first overflows, a heap from
            # then on), the records deferred to the next run, and the
            # page-sized output buffer of the run being written.
            self.held: list = []
            self.deferred: list = []
            self.run_buffer: list = []
            self.run_file = None
            self._seq = 0
        return
        yield  # pragma: no cover

    def next_batch(self, batch, port):
        yield Compute(self.ctx.costs.sort_tuple * len(batch))
        if self.grant is None:
            self.buffered.extend(batch.rows)
            return
        held = self.held
        deferred = self.deferred
        page_rows = self.ctx.page_rows
        records = list(zip(self.build_keys(batch.columns), count(self._seq), batch.rows))
        self._seq += len(records)
        room = self.budget_rows - len(held) - len(deferred)
        if room:
            # Still filling the grant (only ever true before the first
            # overflow: from then on every admission releases a record).
            held.extend(records[:room])
            del records[:room]
        if records:
            if not self.runs:
                heapq.heapify(held)
            buffer = self.run_buffer
            # Memory full: each arrival releases one selection, then is
            # admitted into whichever run its key still fits.
            for record in records:
                if not held:
                    # Every held record belongs to the next run.
                    yield from self._close_run()
                    held.extend(deferred)
                    heapq.heapify(held)
                    deferred.clear()
                if record < held[0]:
                    # Below the record about to be written: next run.
                    selected = heapq.heappop(held)
                    deferred.append(record)
                else:
                    selected = heapq.heapreplace(held, record)
                if self.run_file is None:
                    self._open_run()
                buffer.append(selected)
                if len(buffer) >= page_rows:
                    yield from self._flush_run_page()
        self.grant.resize_used(-(-(len(held) + len(deferred)) // page_rows))

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

    def _open_run(self):
        self.run_file = self.ctx.pool.spill_file(self.ctx.page_rows)
        self.runs.append(self.run_file)

    def _flush_run_page(self):
        """Write the buffered output page; cost charged per page — the
        engine's cost granularity everywhere else — so a long run never
        stalls the producer behind one giant compute burst."""
        costs = self.ctx.costs
        buffer = self.run_buffer
        rows = len(buffer)
        written = self.run_file.append_rows(buffer)
        buffer.clear()
        yield Compute(costs.sort_tuple * rows + costs.spill_page * written)

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

    def _release(self, records):
        """Write held records, already in run order, to the current run."""
        if not records:
            return
        if self.run_file is None:
            self._open_run()
        buffer = self.run_buffer
        page_rows = self.ctx.page_rows
        for record in records:
            buffer.append(record)
            if len(buffer) >= page_rows:
                yield from self._flush_run_page()

    def _governed_finish(self):
        ctx = self.ctx
        costs = ctx.costs
        grant = self.grant
        emitter = self.emitter
        held = self.held

        if not self.runs:
            # Everything fit in the grant: the in-memory path, bit-for-bit.
            # Records sort by (key, seq) — the stable key order.
            if held:
                yield Compute(costs.sort_tuple * len(held))
                held.sort()
                yield from emitter.emit_rows([row for _, _, row in held])
            grant.note(sort_runs=0, merge_passes=0, spilled_pages=0)
            yield from emitter.close()
            grant.close()
            return

        # Input closed: what is still held finishes the current run, the
        # deferred records form the last one. A heap drains in sorted
        # order, so sorting replaces the remaining selections.
        held.sort()
        yield from self._release(held)
        if self.deferred:
            yield from self._close_run()
            self.deferred.sort()
            yield from self._release(self.deferred)
        yield from self._close_run()
        held.clear()
        self.deferred.clear()
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
                written = yield from _merge_runs(batch, ctx, grant, out_file=out_file)
                self.spilled_pages += written
                next_runs.append(out_file)
            runs = next_runs
        merge_passes += 1
        yield from _merge_runs(runs, ctx, grant, emitter=emitter)
        grant.resize_used(0)
        grant.note(
            sort_runs=initial_runs,
            merge_passes=merge_passes,
            spilled_pages=self.spilled_pages,
        )
        yield from emitter.close()
        grant.close()


def _merge_runs(files, ctx, grant, out_file=None, emitter=None):
    """K-way merge of sorted runs; returns spill pages written.

    Exactly one of ``out_file`` (intermediate pass) and ``emitter``
    (final pass) is used. Input runs stream through
    :class:`SpillCursor`s — one sequential prefetch pipeline per run —
    with the merge's per-page CPU as the drain credit, and are dropped
    once consumed. Runs store sort records ``(key, seq, row)``, so the
    pages merge as they are (:func:`merge_spans`): ``seq`` is unique
    across the whole input, key ties break by it, and the global stable
    order survives replacement selection having placed a later arrival
    in an earlier run. Intermediate passes write the records back; the
    final pass emits their rows.
    """
    costs = ctx.costs
    page_rows = ctx.page_rows
    cursors = [SpillCursor(f, costs.io_page, ctx.spill_prefetch) for f in files]
    buffers: list = [()] * len(files)
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
        buffers[index] = page.rows

    # Rows to the output file's next page boundary. A span is handed
    # over cut there, so each page is admitted to the pool, and charged,
    # between the same two events as when rows arrived one at a time.
    room = page_rows

    def write(span):
        nonlocal written, room
        start = 0
        while start < len(span):
            chunk = span[start : start + room]
            start += len(chunk)
            room -= len(chunk)
            pages_out = out_file.append_rows(chunk)
            if pages_out:
                room = page_rows
                written += pages_out
                yield Compute(costs.spill_page * pages_out)

    def emit(span):
        return emitter.emit_rows([row for _, _, row in span])

    yield from merge_spans(buffers, fetch, emit if out_file is None else write)

    if out_file is not None:
        pages_out = out_file.flush()
        if pages_out:
            written += pages_out
            yield Compute(costs.spill_page * pages_out)
    for spent in files:
        spent.drop()
    return written
