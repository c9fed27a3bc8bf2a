"""Hash aggregation stage (stop-&-go), with graceful spilling.

Consumes its entire input, folding rows into per-group state, then
emits one output row per group. Output groups are ordered by group key
so results are deterministic regardless of scheduling.

NULL semantics: aggregate inputs that evaluate to ``None`` are skipped
(``count(expr)`` counts non-NULL values; ``count(*)`` counts rows) —
TPC-H Q13's ``count(o_orderkey)`` over a left join depends on this.

Every batch goes through one fold kernel, in two passes. *Resolve*: one
dict lookup per row takes its group key to that group's state, a flat
list of ``[total, count, best]`` per aggregate. *Accumulate*: one tight
loop per aggregate over ``zip(states, column)``, chosen per aggregate
function when the operator is built. Within a group values are added
in row order, so float sums are bit-identical to the naive oracle
(:func:`aggregate_rows`, which shares no code with the kernel).

Without memory governance (``ctx.memory is None``) the stage buffers
every group unconditionally, exactly as the seed did. With a
:class:`~repro.engine.memory.MemoryBroker` attached it takes a
working-memory grant and becomes a **partitioned spilling aggregate**:
groups are hashed into partitions (memoised per key), and when the
resident group state exceeds the grant the largest partition is
spilled — its group *states* (which merge: sums add, counts add,
min/max combine) are written through a
:class:`~repro.storage.buffer.SpillFile`, and later input rows for a
spilled partition are folded into singleton states and appended, in row
order. A finalize phase re-reads each spilled partition, merges its
states with the same kernels (the broker records an overcommit if a
single partition still exceeds the grant — the recursion floor), and
emits all groups in global key order, so the answer is identical to the
unbounded aggregate's at every budget.
"""

from __future__ import annotations

from itertools import repeat

from repro.engine.expressions import compile_batch
from repro.engine.operators.api import BatchOperator
from repro.engine.operators.partitioning import PartitionMemo
from repro.errors import PlanError
from repro.sim.events import Compute
from repro.storage.spill_cursor import SpillCursor

__all__ = ["AggregateOperator", "aggregate_rows", "Accumulator"]

# Group-state partitions of the governed aggregate; clamped to the
# memory grant like the hybrid hash join's fanout.
DEFAULT_FANOUT = 8
# count(*)'s value column: a one per row, however many rows.
_ONES = repeat(1)


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

    def state(self) -> tuple:
        """Serializable partial state, mergeable via :meth:`absorb`."""
        return (self.total, self.count, self.best)

    def absorb(self, state: tuple) -> None:
        """Merge another accumulator's partial state into this one.

        Every supported aggregate is decomposable: sums and counts
        add, min/max combine — which is what makes spilling partial
        group state (rather than raw input rows) correct.
        """
        total, count, best = state
        self.total += total
        self.count += count
        if best is not None:
            if self.best is None:
                self.best = best
            elif self.func == "min":
                self.best = min(self.best, best)
            elif self.func == "max":
                self.best = max(self.best, best)

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


# -- accumulate kernels ----------------------------------------------------
#
# Each takes the batch's resolved states (one per row, repeats allowed)
# and a column, and updates one slot of the flat state in row order.
# ``_add`` counts rows (``count(*)`` is a column of ones) and, like
# ``_least`` and ``_greatest``, merges spilled state columns: a state
# that never saw a value carries the identity.


def _add(slot):
    def accumulate(states, column):
        for state, value in zip(states, column):
            state[slot] += value

    return accumulate


def _sum(total, count):
    def accumulate(states, column):
        for state, value in zip(states, column):
            if value is not None:
                state[total] += value
                state[count] += 1

    return accumulate


def _count_values(count):
    def accumulate(states, column):
        for state, value in zip(states, column):
            if value is not None:
                state[count] += 1

    return accumulate


def _least(best):
    def accumulate(states, column):
        for state, value in zip(states, column):
            if value is not None:
                kept = state[best]
                if kept is None or value < kept:
                    state[best] = value

    return accumulate


def _greatest(best):
    def accumulate(states, column):
        for state, value in zip(states, column):
            if value is not None:
                kept = state[best]
                if kept is None or value > kept:
                    state[best] = value

    return accumulate


def _compile_kernels(aggs):
    """Per aggregate: the kernel folding its value column, and the
    ``(kernel, slot)`` pairs merging its spilled state columns."""
    fold, merge = [], []
    for i, spec in enumerate(aggs):
        total, count, best = 3 * i, 3 * i + 1, 3 * i + 2
        if spec.func == "count":
            fold.append(_add(count) if spec.expr is None else _count_values(count))
            merge.append((_add(count), count))
        elif spec.func in ("sum", "avg"):
            fold.append(_sum(total, count))
            merge += [(_add(total), total), (_add(count), count)]
        elif spec.func in ("min", "max"):
            kernel = (_least if spec.func == "min" else _greatest)(best)
            fold.append(kernel)
            merge.append((kernel, best))
        else:  # pragma: no cover - constructor validates
            raise PlanError(f"unknown aggregate {spec.func!r}")
    return fold, merge


def _result(func, total, count, best):
    if func == "count":
        return count
    if func == "sum":
        return total if count else None
    if func == "avg":
        return total / count if count else None
    return best


class _Groups(dict):
    """Group key -> flat state; a key's first lookup starts its state."""

    __slots__ = ("fresh",)

    def __init__(self, fresh: list) -> None:
        super().__init__()
        self.fresh = fresh

    def __missing__(self, key) -> list:
        state = self[key] = self.fresh.copy()
        return state


class AggregateOperator(BatchOperator):
    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        schema = node.children[0].schema
        aggs = node.params["aggs"]
        self.funcs = [spec.func for spec in aggs]
        self.group_idx = [schema.index_of(n) for n in node.params["group_by"]]
        self.kernels, self.mergers = _compile_kernels(aggs)
        # Batch-compiled value extractors; None stands for count(*),
        # which reads a column of ones.
        self.value_fns = [
            None if spec.expr is None else compile_batch(spec.expr, schema) for spec in aggs
        ]
        self.make_emitter(len(node.schema))
        self.fresh = [0.0, 0, None] * len(aggs)
        self.groups = _Groups(self.fresh)
        self.grant = None

    # -- the fold kernel -------------------------------------------------

    def _fold(self, batch) -> list:
        """Resolve each row's group state once, then accumulate column
        at a time. Returns ``(file, key, state)`` for the rows that fell
        in spilled partitions, in row order, for the caller to append."""
        n = len(batch)
        cols = batch.columns
        group_idx = self.group_idx
        keys = zip(*[cols[i] for i in group_idx]) if group_idx else repeat((), n)
        columns = [_ONES if fn is None else fn(cols, n) for fn in self.value_fns]
        spilled = []
        if self.grant is None:
            states = list(map(self.groups.__getitem__, keys))
        else:
            parts, memo, fresh = self.parts, self.memo, self.fresh
            states = []
            for key in keys:
                part = parts[memo[key]]
                groups = part.groups
                if groups is None:
                    state = fresh.copy()
                    spilled.append((part.file, key, state))
                else:
                    state = groups[key]
                states.append(state)
        for kernel, column in zip(self.kernels, columns):
            kernel(states, column)
        return spilled

    def _output_row(self, key, state) -> tuple:
        slots = iter(state)
        return key + tuple(map(_result, self.funcs, slots, slots, slots))

    # -- protocol --------------------------------------------------------

    def open(self):
        ctx = self.ctx
        if ctx.memory is not None:
            # Grant acquisition stays at task start (not construction)
            # so broker bookkeeping keeps its spawn-order timeline.
            self.grant = ctx.memory.grant(self.node.op_id, self.node.params.get("mem_pages"))
            fanout = max(2, min(self.node.params.get("fanout", DEFAULT_FANOUT), self.grant.pages))
            self.parts = [_AggPartition(self.fresh) for _ in range(fanout)]
            self.memo = PartitionMemo(0, fanout)
        return
        yield  # pragma: no cover

    def next_batch(self, batch, port):
        if self.grant is not None:
            yield from self._governed_fold(batch)
            return
        yield Compute(self.ctx.costs.agg_update * len(batch))
        self._fold(batch)

    def finish(self):
        key_width = len(self.group_idx)
        output = []
        if self.grant is None:
            output.extend(self._output_row(key, state) for key, state in self.groups.items())
        else:
            yield from self._merge_partitions(output, key_width)
        output.sort(key=lambda row: _sort_key(row[:key_width]))
        if output:
            yield Compute(self.ctx.costs.agg_emit * len(output))
        yield from self.emitter.emit_rows(output)
        yield from self.emitter.close()
        if self.grant is not None:
            self.grant.close()

    # -- memory-governed partitioned aggregate ---------------------------

    def _spill_largest(self) -> int:
        """Spill the largest resident partition's state; pages written."""
        victim = max((p for p in self.parts if p.groups), key=lambda p: len(p.groups))
        if victim.file is None:
            victim.file = self.ctx.pool.spill_file(self.ctx.page_rows)
        written = victim.file.append_rows(
            key + tuple(state) for key, state in victim.groups.items()
        )
        victim.groups = None
        return written

    def _governed_fold(self, batch):
        """Fold one batch into partitioned group state, spilling the
        largest partition whenever the grant is exceeded."""
        costs = self.ctx.costs
        page_rows = self.ctx.page_rows
        parts = self.parts
        grant = self.grant
        cost = costs.agg_update * len(batch)
        for file, key, state in self._fold(batch):
            written = file.append_rows((key + tuple(state),))
            if written:
                cost += costs.spill_page * written
        while _group_pages(parts, page_rows) > grant.pages:
            cost += costs.spill_page * self._spill_largest()
        grant.resize_used(_group_pages(parts, page_rows))
        yield Compute(cost)

    def _merge_partitions(self, output, key_width):
        """Resident partitions emit directly; spilled partitions re-read
        and merge their state runs (overcommitting at the floor if a
        single partition still exceeds the grant)."""
        ctx = self.ctx
        costs = ctx.costs
        grant = self.grant
        for p in self.parts:
            merged = p.groups
            if p.spilled:
                seal = costs.spill_page * p.file.flush()
                if seal:
                    yield Compute(seal)
                grant.resize_used(p.file.page_count)
                merged = _Groups(self.fresh)
                # Stream the state run back through a prefetched cursor: the
                # merge CPU of this page drains the next pages' reads.
                reader = SpillCursor(p.file, costs.io_page, ctx.spill_prefetch)
                credit = 0.0
                while not reader.exhausted:
                    spill_page, stall = reader.next_page(credit)
                    rows = spill_page.rows
                    states = [merged[row[:key_width]] for row in rows]
                    columns = list(zip(*rows))
                    for kernel, slot in self.mergers:
                        kernel(states, columns[key_width + slot])
                    credit = costs.agg_update * len(spill_page)
                    yield Compute(credit + stall, io=stall)
                p.file.drop()
            output.extend(self._output_row(key, state) for key, state in merged.items())
            p.groups = None
        grant.resize_used(0)


class _AggPartition:
    """One partition: resident group map or a spill file of states."""

    __slots__ = ("groups", "file")

    def __init__(self, fresh: list) -> None:
        self.groups: _Groups | None = _Groups(fresh)
        self.file = None

    @property
    def spilled(self) -> bool:
        return self.groups is None


def _group_pages(parts, page_rows: int) -> int:
    """Pages of resident group state (one group ~ one state row)."""
    return sum(-(-len(p.groups) // page_rows) for p in parts if p.groups)
