"""Hash join stage: stop-&-go build, pipelined probe (Section 5.3.3).

Child 0 is the build side, child 1 the probe side. The build phase
drains its input into a hash table keyed on ``build_key``; the probe
phase then streams, emitting per ``join_type``:

* ``inner`` — one output row per (probe, build) match:
  probe columns ++ build columns;
* ``left``  — like inner, plus unmatched probe rows padded with NULL
  build columns (TPC-H Q13's customer-orders join);
* ``semi``  — probe rows with at least one match, probe columns only
  (TPC-H Q4's EXISTS);
* ``anti``  — probe rows with no match, probe columns only.

The join key column is pulled out of each batch once (the
batch is columnar, so this is a single list reference) and the
build/probe loops walk ``zip(keys, rows)`` instead of indexing into
every row tuple.

The build side lands in one table, ``key → bucket``, and each probe
batch is one lookup loop over it. The table is counted against the
operator's memory grant
(:meth:`~repro.engine.operators.api.StageContext.grant`; an ungoverned
engine's never overflows) — ⌈build rows / ``page_rows``⌉ pages — and
the operator is a **spilling hybrid hash join** in the style of
Jahangiri, Carey & Freytag (2021), partitioned only once the grant
first overflows: a build side that fits hashes nothing. At that first
overflow the table is split, in insertion order, into ``fanout`` partitions
through a :class:`~repro.engine.operators.partitioning.PartitionMemo`
— each holding the keys, in the order and with the buckets, it would
have held had the join partitioned from its first row — and from then
on the resident partitions are counted as one table: ⌈resident build
rows / ``page_rows``⌉ pages, however many partitions hold them. While
that exceeds the grant the largest resident partition is spilled —
written page by page through the buffer pool (``spill_page`` per
page), with later build rows for it appended to its spill file. Probe
rows for resident partitions stream through pipelined as usual; probe
rows for spilled partitions are spilled alongside. A cleanup phase
then joins each spilled partition pair, recursing with a fresh hash
salt when a partition alone still exceeds the grant. Every level maps
keys to partitions through a memo — one for build and probe together,
one per re-partitioning — so the seed-independent hash is paid once
per distinct key. At the recursion floor the partition is processed
in memory regardless (the broker records an overcommit), so shrinking
``work_mem`` degrades cost smoothly and can never fail the query. The
grant notes ``spilled_partitions``: how many top-level partitions went
to disk, 0 when the build side fit.
"""

from __future__ import annotations

from operator import itemgetter

from repro.engine.operators.api import BatchOperator
from repro.engine.operators.partitioning import PartitionMemo
from repro.sim.events import Compute
from repro.storage.spill_cursor import SpillCursor

__all__ = ["HashJoinOperator", "build_table", "probe_rows"]

# Build-side partitions at every level of the hybrid join. The actual
# fanout is clamped to the memory grant (more partitions than budget
# pages just forces spills of near-empty partitions).
DEFAULT_FANOUT = 8
# Beyond this partitioning depth a partition is joined in memory even
# if over budget: repeated splitting has failed (heavy key skew), and
# overcommitting is better than recursing forever.
MAX_RECURSION_DEPTH = 3


def build_table(build_rows, key_index):
    """Pure function: the join hash table key -> list of build rows."""
    table: dict = {}
    for row in build_rows:
        table.setdefault(row[key_index], []).append(row)
    return table


def probe_rows(rows, table, key_index, join_type, build_width):
    """Pure function: join output for a batch of probe rows."""
    return _probe_keyed(rows, [row[key_index] for row in rows], table, join_type, build_width)


def _probe_keyed(rows, keys, table, join_type, build_width):
    """Join output for probe rows whose keys are already extracted."""
    output = []
    if join_type == "inner":
        get = table.get
        for key, row in zip(keys, rows):
            for match in get(key, ()):
                output.append(row + match)
    elif join_type == "left":
        nulls = (None,) * build_width
        get = table.get
        for key, row in zip(keys, rows):
            matches = get(key)
            if matches:
                for match in matches:
                    output.append(row + match)
            else:
                output.append(row + nulls)
    elif join_type == "semi":
        for key, row in zip(keys, rows):
            if key in table:
                output.append(row)
    elif join_type == "anti":
        for key, row in zip(keys, rows):
            if key not in table:
                output.append(row)
    else:  # pragma: no cover - plan constructor validates
        raise AssertionError(f"unknown join type {join_type!r}")
    return output


class _Partition:
    """One build-side partition: resident hash table or spill files."""

    __slots__ = ("table", "rows", "build_file", "probe_file")

    def __init__(self) -> None:
        self.table: dict | None = {}
        self.rows = 0
        self.build_file = None
        self.probe_file = None

    @property
    def spilled(self) -> bool:
        return self.table is None


class HashJoinOperator(BatchOperator):
    """``mem_pages`` is the grant this instance asks for; by default the
    node's own ``mem_pages`` (``None`` = whatever ``work_mem`` has left).
    The parallel builder passes one ``dop``-th of the budget to each
    partition's instance."""

    ports = 2

    def __init__(self, node, ctx, out_queues, mem_pages=None):
        super().__init__(node, ctx, out_queues)
        self.mem_pages = node.params.get("mem_pages") if mem_pages is None else mem_pages
        build_schema, probe_schema = (child.schema for child in node.children)
        self.build_index = build_schema.index_of(node.params["build_key"])
        self.probe_index = probe_schema.index_of(node.params["probe_key"])
        self.join_type = node.params["join_type"]
        self.build_width = len(build_schema)
        # The build side until the grant first overflows (or the join
        # finishes), then ``None``.
        self.table: dict | None = {}
        # Build rows held in ``table`` or the resident partitions.
        self.resident_rows = 0
        # ``None`` until the grant first overflows, then the partitions.
        self.parts = None
        self.make_emitter(len(node.schema))

    # -- protocol --------------------------------------------------------

    def open(self):
        self.grant = self.ctx.grant(self.node.op_id, self.mem_pages)
        self.fanout = max(2, min(self.node.params.get("fanout", DEFAULT_FANOUT), self.grant.pages))
        return
        yield  # pragma: no cover

    def next_batch(self, batch, port):
        if port == 0:
            yield from self._build(batch)
            return
        costs = self.ctx.costs
        keys = batch.column(self.probe_index)
        if self.parts is None:
            yield Compute(costs.hash_probe * len(batch))
            joined = _probe_keyed(batch.rows, keys, self.table, self.join_type, self.build_width)
        else:
            joined = yield from self._partitioned_probe(batch, keys)
        if joined:
            yield Compute(costs.join_emit * len(joined))
            yield from self.emitter.emit_rows(joined)

    def close_port(self, port):
        if port == 0 and self.parts is not None:
            # Seal spilled build files (a partial trailing page still
            # costs a write when it goes out).
            seal_cost = sum(
                self.ctx.costs.spill_page * p.build_file.flush() for p in self.parts if p.spilled
            )
            if seal_cost:
                yield Compute(seal_cost)

    def finish(self):
        # The resident build side is fully probed: release it before the
        # cleanup phase claims pages for re-reading runs.
        spilled = [p for p in self.parts or () if p.spilled]
        self.table = self.parts = None
        grant = self.grant
        grant.resize_used(0)
        grant.note(spilled_partitions=len(spilled))
        # Cleanup phase: join every spilled partition pair, recursively.
        costs = self.ctx.costs
        for p in spilled:
            if p.probe_file is not None:
                seal = costs.spill_page * p.probe_file.flush()
                if seal:
                    yield Compute(seal)
            yield from _join_spilled(
                p.build_file,
                p.probe_file,
                1,
                self.ctx,
                grant,
                self.emitter,
                self.build_index,
                self.probe_index,
                self.join_type,
                self.build_width,
                self.fanout,
            )

    # -- build, and the memory-governed hybrid phases --------------------

    def _build(self, batch):
        """Insert one build batch: into the one table until the grant
        first overflows, then into the partitions. While the resident
        rows, counted as one table (⌈rows / ``page_rows``⌉ pages),
        exceed the grant, the largest resident partition is spilled."""
        costs = self.ctx.costs
        cost = costs.hash_build * len(batch)
        keys = batch.column(self.build_index)
        parts = self.parts
        if parts is None:
            table = self.table
            for key, row in zip(keys, batch.rows):
                table.setdefault(key, []).append(row)
            self.resident_rows += len(batch)
        else:
            inserted = 0
            for partition, key, row in zip(map(self.memo.__getitem__, keys), keys, batch.rows):
                p = parts[partition]
                if p.spilled:
                    cost += costs.spill_page * p.build_file.append_rows((row,))
                else:
                    p.table.setdefault(key, []).append(row)
                    p.rows += 1
                    inserted += 1
            self.resident_rows += inserted
        page_rows = self.ctx.page_rows
        while -(-self.resident_rows // page_rows) > self.grant.pages:
            if self.parts is None:
                self._partition()
            cost += costs.spill_page * self._spill_largest()
        pages = -(-self.resident_rows // page_rows)
        if pages != self.grant.used:
            self.grant.resize_used(pages)
        yield Compute(cost)

    def _partition(self) -> None:
        """At the grant's first overflow, split the one table into
        ``fanout`` partitions, walking it in insertion order: each
        partition holds its keys in first-seen order with their
        buckets, as if the build had partitioned from its first row.
        Build and probe then partition alike: one memo serves both."""
        self.memo = memo = PartitionMemo(0, self.fanout)
        self.parts = parts = [_Partition() for _ in range(self.fanout)]
        for key, bucket in self.table.items():
            p = parts[memo[key]]
            p.table[key] = bucket
            p.rows += len(bucket)
        self.table = None

    def _spill_largest(self) -> int:
        """Evict the largest resident partition; returns pages written."""
        victim = max((p for p in self.parts if not p.spilled and p.rows), key=lambda p: p.rows)
        rows = [row for bucket in victim.table.values() for row in bucket]
        victim.build_file = self.grant.spill_file(self.ctx.page_rows)
        written = victim.build_file.append_rows(rows)
        victim.table = None
        self.resident_rows -= victim.rows
        victim.rows = 0
        return written

    def _partitioned_probe(self, batch, keys):
        """Probe resident partitions pipelined; buffer probe rows of
        spilled partitions in spill files. Returns the joined rows."""
        ctx = self.ctx
        costs = ctx.costs
        parts = self.parts
        cost = costs.hash_probe * len(batch)
        joined = []
        for partition, key, row in zip(map(self.memo.__getitem__, keys), keys, batch.rows):
            p = parts[partition]
            if p.spilled:
                if p.probe_file is None:
                    p.probe_file = self.grant.spill_file(ctx.page_rows)
                cost += costs.spill_page * p.probe_file.append_rows((row,))
            else:
                joined.extend(
                    _probe_keyed((row,), (key,), p.table, self.join_type, self.build_width)
                )
        yield Compute(cost)
        return joined


def _join_spilled(
    build_file,
    probe_file,
    depth,
    ctx,
    grant,
    emitter,
    build_index,
    probe_index,
    join_type,
    build_width,
    fanout,
):
    """Join one spilled (build, probe) partition pair."""
    costs = ctx.costs
    page_rows = ctx.page_rows

    if probe_file is None or probe_file.row_count == 0:
        # No probe rows landed here: every join type emits per probe
        # row, so there is nothing to produce.
        build_file.drop()
        if probe_file is not None:
            probe_file.drop()
        return

    fits = build_file.page_count <= grant.pages
    if fits or depth >= MAX_RECURSION_DEPTH or build_file.page_count <= 1:
        # Re-read the build run page by page through a prefetched
        # cursor — hashing this page drains the next pages' reads —
        # rebuild the hash table, then stream the probe run the same
        # way. At the recursion floor this may exceed the grant; the
        # broker records the overcommit.
        grant.resize_used(build_file.page_count)
        table: dict = {}
        reader = SpillCursor(build_file, costs.io_page, ctx.spill_prefetch)
        credit = 0.0
        while not reader.exhausted:
            page, stall = reader.next_page(credit)
            credit = costs.hash_build * len(page)
            yield Compute(credit + stall, io=stall)
            for row in page.rows:
                table.setdefault(row[build_index], []).append(row)
        reader = SpillCursor(probe_file, costs.io_page, ctx.spill_prefetch)
        credit = 0.0
        while not reader.exhausted:
            page, stall = reader.next_page(credit)
            credit = costs.hash_probe * len(page)
            yield Compute(credit + stall, io=stall)
            joined = probe_rows(page.rows, table, probe_index, join_type, build_width)
            if joined:
                emit_cost = costs.join_emit * len(joined)
                credit += emit_cost
                yield Compute(emit_cost)
                yield from emitter.emit_rows(joined)
        grant.resize_used(0)
        build_file.drop()
        probe_file.drop()
        return

    # The partition alone exceeds the grant: re-partition both runs
    # with this level's hash salt and recurse (Grace-style).
    sub_build = [grant.spill_file(page_rows) for _ in range(fanout)]
    sub_probe = [grant.spill_file(page_rows) for _ in range(fanout)]
    memo = PartitionMemo(depth, fanout)
    for files, source, key_index in (
        (sub_build, build_file, build_index),
        (sub_probe, probe_file, probe_index),
    ):
        reader = SpillCursor(source, costs.io_page, ctx.spill_prefetch)
        while not reader.exhausted:
            # No drain credit: the per-page work here is spill-write
            # disk cost, not CPU — the sequential disk cannot read
            # ahead while it is busy writing the partitions.
            page, stall = reader.next_page(0.0)
            cost = 0.0
            partitions = map(memo.__getitem__, map(itemgetter(key_index), page.rows))
            for partition, row in zip(partitions, page.rows):
                cost += costs.spill_page * files[partition].append_rows((row,))
            yield Compute(cost + stall, io=stall)
        seal = sum(costs.spill_page * f.flush() for f in files)
        if seal:
            yield Compute(seal)
        source.drop()
    for sub_b, sub_p in zip(sub_build, sub_probe):
        yield from _join_spilled(
            sub_b,
            sub_p,
            depth + 1,
            ctx,
            grant,
            emitter,
            build_index,
            probe_index,
            join_type,
            build_width,
            fanout,
        )
