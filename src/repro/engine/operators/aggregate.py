"""Hash aggregation stage (stop-&-go), with graceful spilling.

Consumes its entire input, folding rows into per-group state, then
emits one output row per group. Output groups are ordered by group key
so results are deterministic regardless of scheduling.

NULL semantics: aggregate inputs that evaluate to ``None`` are skipped
(``count(expr)`` counts non-NULL values; ``count(*)`` counts rows) —
TPC-H Q13's ``count(o_orderkey)`` over a left join depends on this.

A group's state is one flat list, ``[rows, acc₀, nulls₀, acc₁, nulls₁,
…]``: ``rows`` counts the group's input rows, and per aggregate ``acc``
is the running sum (sum/avg) or the best value so far (min/max) and
``nulls`` the NULL inputs it skipped. ``count(*)`` is ``rows``,
``count(expr)`` is ``rows − nulls``, and sum/avg divide by the same.
Every batch goes through one function generated per ``(aggs, input
schema, global?, input NOT NULL set)`` from the expression lowering of
:func:`~repro.engine.expressions.compile_batch`: one loop over the
batch that resolves each row's group state (one dict lookup,
``map(groups.__getitem__, keys)``) and updates every aggregate of the
row, its value expressions inlined. A value that cannot be NULL
(:func:`~repro.engine.plan.not_null`) is folded without a NULL test:
its ``nulls`` slot stays 0, and ``count(expr)`` over it costs nothing
per row. A global aggregate (no GROUP BY) keeps its slots in locals
for the whole batch. Within a group values are added in row order, so
float sums are bit-identical to the naive oracle
(:func:`aggregate_rows`, which shares no code with the fold).

The stage takes a working-memory grant
(:meth:`~repro.engine.operators.api.StageContext.grant`; an ungoverned
engine's never overflows) and is a **partitioned spilling aggregate**,
partitioned only once the grant first overflows. The group state is
counted as one table, one state row per group — ⌈resident groups /
``page_rows``⌉ pages, as the model's working-set estimate counts it —
so until it exceeds the grant the fold keeps one ``key → state`` map
and hashes no key. At the first overflow the map is
split, in insertion order, into partitions through a
:class:`~repro.engine.operators.partitioning.PartitionMemo` — each
holding the keys, in the order and with the states, it would have held
had the fold partitioned from its first row — and while the resident
groups still exceed the grant the largest partition is spilled. A
spilled partition's group *states* (which merge: rows, sums and NULL
counts add, min/max combine) are written through a
:class:`~repro.storage.buffer.SpillFile`, and later input rows for a
spilled partition are folded into singleton states and appended, in
row order. Resolve is then one ``key → state`` map over the resident
partitions whose first lookup of a key routes it through the partition
memo. A finalize phase re-reads each spilled partition, merges its
``key + state`` rows in one generated loop (reporting the merged
states it holds, not the run's pages; the broker records an overcommit
if one partition's merged states still exceed the grant — the
recursion floor), and emits all groups in global key order, so the
answer is identical to the unbounded aggregate's at every budget. The
grant notes ``spilled_partitions``: how many partitions went to disk,
0 when the state fit.
"""

from __future__ import annotations

from repro.engine.expressions import _BatchCodegen, generated
from repro.engine.operators.api import BatchOperator
from repro.engine.operators.partitioning import PartitionMemo
from repro.engine.plan import not_null
from repro.errors import PlanError
from repro.sim.events import Compute
from repro.storage.spill_cursor import SpillCursor

__all__ = ["AggregateOperator", "aggregate_rows", "Accumulator"]

# Group-state partitions of the governed aggregate; clamped to the
# memory grant like the hybrid hash join's fanout.
DEFAULT_FANOUT = 8


class Accumulator:
    """Streaming accumulator for one (group, aggregate) pair."""

    __slots__ = ("func", "total", "count", "best")

    def __init__(self, func: str) -> None:
        self.func = func
        self.total = 0.0
        self.count = 0
        self.best = None

    def update(self, value) -> None:
        if self.func == "count":
            # value is a sentinel for count(*) rows; None means a NULL
            # expression input, which count(expr) skips.
            if value is not None:
                self.count += 1
            return
        if value is None:
            return
        if self.func in ("sum", "avg"):
            self.total += value
            self.count += 1
        elif self.func == "min":
            self.best = value if self.best is None else min(self.best, value)
        elif self.func == "max":
            self.best = value if self.best is None else max(self.best, value)
        else:  # pragma: no cover - constructor validates
            raise PlanError(f"unknown aggregate {self.func!r}")

    def result(self):
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total if self.count else None
        if self.func == "avg":
            return self.total / self.count if self.count else None
        return self.best


def _sort_key(key: tuple) -> tuple:
    """Order group keys deterministically, tolerating None values."""
    return tuple((value is None, value) for value in key)


def aggregate_rows(rows, schema, group_by, aggs):
    """Pure function: grouped aggregation over materialized rows."""
    group_idx = [schema.index_of(name) for name in group_by]
    value_fns = [
        (spec.expr.compile(schema) if spec.expr is not None else (lambda row: True))
        for spec in aggs
    ]
    groups: dict[tuple, list[Accumulator]] = {}
    for row in rows:
        key = tuple(row[i] for i in group_idx)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [Accumulator(spec.func) for spec in aggs]
            groups[key] = accumulators
        for accumulator, fn in zip(accumulators, value_fns):
            accumulator.update(fn(row))
    output = []
    for key in sorted(groups, key=_sort_key):
        output.append(key + tuple(a.result() for a in groups[key]))
    return output


# -- the generated fold ------------------------------------------------------
#
# Slot 0 of a state is ``rows``; aggregate i owns ``acc`` at 1 + 2i and
# ``nulls`` at 2 + 2i. One source defines three functions:
#
#   _fold(_cols, _n, _states)  one batch; ``_states`` yields each row's
#                              state (a global fold takes the one state)
#   _merge(_rows, _groups, _kw)  spilled ``key + state`` rows, key width _kw
#   _output(_groups)           ``key + results`` per group


def _fold_source(aggs, gen: _BatchCodegen, grouped: bool) -> str:
    width = 1 + 2 * len(aggs)
    slot = (lambda j: f"_s[{j}]") if grouped else (lambda j: f"_x{j}")
    body = []
    for i, spec in enumerate(aggs):
        if spec.expr is None:
            continue
        acc, nulls = slot(1 + 2 * i), slot(2 + 2 * i)
        value = spec.expr._emit_batch(gen)
        better = "<" if spec.func == "min" else ">"
        if not gen.nullable(spec.expr):
            # No NULL to skip: ``nulls`` stays 0 and count(expr) is rows.
            if spec.func in ("sum", "avg"):
                body.append(f"{acc} += {value}")
            elif spec.func != "count":
                if not value.isidentifier():
                    body.append(f"_v = {value}")
                    value = "_v"
                body += [
                    f"if (_b := {acc}) is None or {value} {better} _b:",
                    f"    {acc} = {value}",
                ]
            continue
        if spec.func == "count":
            body += [f"if {value} is None:", f"    {nulls} += 1"]
            continue
        body += [f"if (_v := {value}) is None:", f"    {nulls} += 1"]
        if spec.func in ("sum", "avg"):
            body += ["else:", f"    {acc} += _v"]
        else:
            body += [f"elif (_b := {acc}) is None or _v {better} _b:", f"    {acc} = _v"]
    lines = ["def _fold(_cols, _n, _states):"]
    if grouped:
        lines.append(f"    {gen.loop(('_s', '_states'))}:")
        lines += [f"        {line}" for line in ["_s[0] += 1", *body]]
        return "\n".join(lines)
    slots = [slot(j) for j in range(width)]
    lines.append(f"    {', '.join(slots)}, = _states")
    if body:
        lines.append(f"    {gen.loop()}:")
        lines += [f"        {line}" for line in body]
    lines.append(f"    _states[:] = ({', '.join(['_x0 + _n', *slots[1:]])},)")
    return "\n".join(lines)


def _merge_source(aggs) -> str:
    width = 1 + 2 * len(aggs)
    lines = [
        "def _merge(_rows, _groups, _kw):",
        "    for _row in _rows:",
        "        _s = _groups[_row[:_kw]]",
        f"        {', '.join(f'_m{j}' for j in range(width))}, = _row[_kw:]",
        "        _s[0] += _m0",
    ]
    for i, spec in enumerate(aggs):
        if spec.expr is None:
            continue
        acc, nulls = 1 + 2 * i, 2 + 2 * i
        lines.append(f"        _s[{nulls}] += _m{nulls}")
        if spec.func in ("sum", "avg"):
            lines.append(f"        _s[{acc}] += _m{acc}")
        elif spec.func in ("min", "max"):
            better = "<" if spec.func == "min" else ">"
            lines += [
                f"        if (_v := _m{acc}) is not None and ("
                f"(_b := _s[{acc}]) is None or _v {better} _b):",
                f"            _s[{acc}] = _v",
            ]
    return "\n".join(lines)


def _output_source(aggs) -> str:
    results = []
    for i, spec in enumerate(aggs):
        acc, nonnull = f"_s[{1 + 2 * i}]", f"(_s[0] - _s[{2 + 2 * i}])"
        if spec.func == "count":
            results.append("_s[0]" if spec.expr is None else nonnull)
        elif spec.func == "sum":
            results.append(f"({acc} if {nonnull} else None)")
        elif spec.func == "avg":
            results.append(f"({acc} / {nonnull} if {nonnull} else None)")
        else:
            results.append(acc)
    row = "".join(f"{result}, " for result in results)
    return f"def _output(_groups):\n    return [_k + ({row}) for _k, _s in _groups.items()]"


def _kernel(aggs, schema, grouped: bool, notnull: frozenset[int]) -> tuple:
    """``(fold, merge, output, fresh state)`` for ``aggs`` over
    ``schema`` whose positions in ``notnull`` hold no NULL: one
    generated source per signature, cached."""

    def build() -> tuple:
        gen = _BatchCodegen(schema, notnull)
        source = "\n".join(
            [_fold_source(aggs, gen, grouped), _merge_source(aggs), _output_source(aggs), ""]
        )
        namespace = gen.define(source)
        fresh = [0]
        for spec in aggs:
            fresh += [None if spec.func in ("min", "max") else 0.0, 0]
        return namespace["_fold"], namespace["_merge"], namespace["_output"], tuple(fresh)

    signature = tuple((spec.func, spec.expr) for spec in aggs)
    return generated(("aggregate", signature, schema.columns, grouped, notnull), build)


class _Groups(dict):
    """Group key -> flat state; a key's first lookup starts its state."""

    __slots__ = ("fresh",)

    def __init__(self, fresh: list) -> None:
        super().__init__()
        self.fresh = fresh

    def __missing__(self, key) -> list:
        state = self[key] = self.fresh.copy()
        return state


class _Resident(dict):
    """Group key -> state over a governed aggregate's resident
    partitions. A key's first lookup routes it through the partition
    memo: into its partition if that is resident, else to a singleton
    state queued in ``spilled`` for the caller to append."""

    __slots__ = ("fresh", "parts", "memo", "spilled")

    def __init__(self, fresh: list, parts: list, memo: PartitionMemo) -> None:
        super().__init__()
        self.fresh = fresh
        self.parts = parts
        self.memo = memo
        self.spilled = []

    def __missing__(self, key) -> list:
        part = self.parts[self.memo[key]]
        state = self.fresh.copy()
        if part.groups is None:
            self.spilled.append((part.file, key, state))
        else:
            part.groups[key] = self[key] = state
        return state


class AggregateOperator(BatchOperator):
    """``mem_pages`` is the grant this instance asks for; by default the
    node's own ``mem_pages`` (``None`` = whatever ``work_mem`` has left).
    The parallel builder passes one ``dop``-th of the budget to each
    partition's instance."""

    def __init__(self, node, ctx, out_queues, mem_pages=None):
        super().__init__(node, ctx, out_queues)
        self.mem_pages = node.params.get("mem_pages") if mem_pages is None else mem_pages
        child = node.children[0]
        self.group_idx = [child.schema.index_of(n) for n in node.params["group_by"]]
        self.fold, self.merge, self.output, fresh = _kernel(
            node.params["aggs"], child.schema, bool(self.group_idx), not_null(child, ctx.catalog)
        )
        self.fresh = list(fresh)
        self.make_emitter(len(node.schema))
        # One map until the grant first overflows, then a _Resident.
        self.groups = _Groups(self.fresh)
        # Groups the pages last reported to the grant hold. Until the
        # first overflow the map only grows, so a batch that leaves it
        # within them has nothing to report or spill.
        self.room = 0
        # ``None`` until the grant first overflows, then the partitions.
        self.parts = None

    def _fold(self, batch) -> None:
        """Fold one batch: each row's state resolved once, in row order."""
        cols = batch.columns
        if self.group_idx:
            keys = zip(*[cols[i] for i in self.group_idx])
            self.fold(cols, len(batch), map(self.groups.__getitem__, keys))
        elif len(batch):
            # One group: one page, and a grant holds at least one page,
            # so a global aggregate's state is always resident.
            self.fold(cols, len(batch), self.groups[()])

    # -- protocol --------------------------------------------------------

    def open(self):
        # Grant acquisition stays at task start (not construction) so
        # broker bookkeeping keeps its spawn-order timeline.
        self.grant = self.ctx.grant(self.node.op_id, self.mem_pages)
        self.fanout = max(2, min(self.node.params.get("fanout", DEFAULT_FANOUT), self.grant.pages))
        return
        yield  # pragma: no cover

    def next_batch(self, batch, port):
        cost = self.ctx.costs.agg_update * len(batch)
        self._fold(batch)
        if self.parts is not None or len(self.groups) > self.room:
            cost = self._govern(cost)
        yield Compute(cost)

    def finish(self):
        key_width = len(self.group_idx)
        grant = self.grant
        grant.note(spilled_partitions=sum(p.spilled for p in self.parts or ()))
        if self.parts is None:
            output = self.output(self.groups)
            grant.resize_used(0)
        else:
            output = []
            yield from self._merge_partitions(output, key_width)
        output.sort(key=lambda row: _sort_key(row[:key_width]))
        if output:
            yield Compute(self.ctx.costs.agg_emit * len(output))
        yield from self.emitter.emit_rows(output)

    # -- memory-governed partitioned aggregate ---------------------------

    def _spill_largest(self) -> int:
        """Spill the largest resident partition's state; pages written."""
        victim = max((p for p in self.parts if p.groups), key=lambda p: len(p.groups))
        if victim.file is None:
            victim.file = self.grant.spill_file(self.ctx.page_rows)
        written = victim.file.append_rows(
            key + tuple(state) for key, state in victim.groups.items()
        )
        resident = self.groups
        for key in victim.groups:
            del resident[key]
        victim.groups = None
        return written

    def _govern(self, cost: float) -> float:
        """Keep the batch just folded within the grant; returns ``cost``
        plus the spill writes. Singleton states of spilled partitions
        are appended to their files; then, while the resident groups
        exceed the grant, the state is partitioned (at the first
        overflow) and the largest resident partition spilled."""
        costs = self.ctx.costs
        page_rows = self.ctx.page_rows
        grant = self.grant
        if self.parts is not None:
            spilled = self.groups.spilled
            for file, key, state in spilled:
                written = file.append_rows((key + tuple(state),))
                if written:
                    cost += costs.spill_page * written
            spilled.clear()
        # The resident map holds exactly the resident keys: one state
        # row each, counted as one table.
        while -(-len(self.groups) // page_rows) > grant.pages:
            if self.parts is None:
                self._partition()
            cost += costs.spill_page * self._spill_largest()
        pages = -(-len(self.groups) // page_rows)
        grant.resize_used(pages)
        self.room = pages * page_rows
        return cost

    def _partition(self) -> None:
        """At the grant's first overflow, split the one group map into
        ``fanout`` partitions, walking it in insertion order: each
        partition and the resident map hold their keys in first-seen
        order with the same states, as if the fold had partitioned from
        its first row."""
        memo = PartitionMemo(0, self.fanout)
        self.parts = parts = [_AggPartition() for _ in range(self.fanout)]
        resident = _Resident(self.fresh, parts, memo)
        for key, state in self.groups.items():
            resident[key] = parts[memo[key]].groups[key] = state
        self.groups = resident

    def _merge_partitions(self, output, key_width):
        """Resident partitions emit directly; spilled partitions re-read
        and merge their state runs (overcommitting at the floor if a
        single partition still exceeds the grant)."""
        ctx = self.ctx
        costs = ctx.costs
        page_rows = ctx.page_rows
        grant = self.grant
        for p in self.parts:
            merged = p.groups
            if p.spilled:
                seal = costs.spill_page * p.file.flush()
                if seal:
                    yield Compute(seal)
                merged = _Groups(self.fresh)
                # Stream the state run back through a prefetched cursor: the
                # merge CPU of this page drains the next pages' reads. The
                # grant holds the merged states, not the run's pages.
                reader = SpillCursor(p.file, costs.io_page, ctx.spill_prefetch)
                credit = 0.0
                while not reader.exhausted:
                    spill_page, stall = reader.next_page(credit)
                    self.merge(spill_page.rows, merged, key_width)
                    grant.resize_used(-(-len(merged) // page_rows))
                    credit = costs.agg_update * len(spill_page)
                    yield Compute(credit + stall, io=stall)
                p.file.drop()
            output.extend(self.output(merged))
            p.groups = None
        grant.resize_used(0)


class _AggPartition:
    """One partition: resident group map or a spill file of states."""

    __slots__ = ("groups", "file")

    def __init__(self) -> None:
        self.groups: dict | None = {}
        self.file = None

    @property
    def spilled(self) -> bool:
        return self.groups is None
