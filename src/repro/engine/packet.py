"""Query packets, batches, handles and results.

In Cordoba, a submitted query is decomposed into *packets* routed to
operator stages; a packet names the work one operator performs on
behalf of one query. In this reproduction the packet bookkeeping is
carried by :class:`QueryHandle` (one per submitted query) and
:class:`GroupHandle` (one per sharing group — the merged packet set):
the handle records lifecycle timestamps and collects the final rows
from the query's sink stage.

:class:`RowBatch` is the data payload of a packet: the columnar batch
of tuples operators exchange over the stage queues. It replaces the
row-tuple :class:`~repro.storage.page.Page` on the exchange path (the
storage layer keeps ``Page`` for table and spill I/O) while exposing
the same read surface (``len``, iteration, ``.rows``), so batch-aware
operators read columns and everything else still sees row tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import EngineError
from repro.storage.schema import Schema

__all__ = ["RowBatch", "QueryHandle", "GroupHandle"]


class RowBatch:
    """A columnar batch of tuples flowing between stages.

    A batch is backed by *either* columns (one sequence per column —
    the scan/filter/project fast path) or a row-tuple sequence (the
    join/sort/aggregate output path), plus an optional *selection
    vector* of keep-flags over the backing columns. The other
    representation, and the application of the selection, are
    materialized lazily and cached — a batch that flows from a scan
    through the emitter to a sink materializes row tuples exactly
    once, at the sink. Every column a batch derives (a compressed
    selection, the transpose of its rows) is a tuple, like the storage
    layer's slices: what a cache may hold is read-only by type and,
    being a tuple of scalars, is not walked by the cyclic collector.

    The derived views a batch caches: its compressed columns, its row
    tuples, and the split the last exchange made of it (``_split``:
    the route ``(key_indices, fanout)`` and one bucket per partition,
    a tuple of column tuples whatever the batch's backing; see
    :class:`~repro.engine.parallel.exchange.ExchangeOperator`). The
    split slot is set only by the exchange and read lazily: no
    constructor touches it, so a batch that never meets an exchange
    pays nothing for it. ``PAGE_CACHE`` weighs a parked page by its
    rows and width only (:mod:`repro.storage.table`): neither the row
    tuples nor the split a parked batch caches count against it.

    Batches are immutable by convention once emitted (like ``Page``);
    the lazy caches only add derived views. Unlike ``Page``, an empty
    batch is legal (operators build batches before knowing whether any
    row survived); emitters simply never flush one.
    """

    __slots__ = ("_columns", "_rows", "_sel", "_n", "width", "_split")

    def __init__(self) -> None:  # use the from_* constructors
        self._columns: Optional[list[Sequence[Any]]] = None
        self._rows: Optional[tuple[tuple[Any, ...], ...]] = None
        self._sel: Optional[Sequence[Any]] = None
        self._n = 0
        self.width = 0

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Any]], n: Optional[int] = None) -> "RowBatch":
        """Wrap column sequences (not copied; hand over ownership)."""
        batch = cls.__new__(cls)
        batch._columns = columns if isinstance(columns, list) else list(columns)
        batch._rows = None
        batch._sel = None
        batch._n = len(columns[0]) if n is None else n
        batch.width = len(columns)
        return batch

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[Any, ...]], width: Optional[int] = None) -> "RowBatch":
        """Wrap a row-tuple sequence (not copied; hand over ownership)."""
        batch = cls.__new__(cls)
        batch._columns = None
        batch._rows = rows if isinstance(rows, tuple) else tuple(rows)
        batch._sel = None
        batch._n = len(rows)
        if width is None:
            width = len(rows[0]) if rows else 0
        batch.width = width
        return batch

    def select(self, flags: Sequence[Any], kept: int) -> "RowBatch":
        """A view keeping the rows whose flag is truthy.

        ``flags`` is the selection vector (one truthy/falsy entry per
        row, e.g. a batch-compiled predicate's output); ``kept`` is the
        number of truthy flags. Columns are compressed lazily on first
        access, so chained inspections of ``len`` stay O(1). The view
        keeps this batch's backing: a selection over a selection
        compresses this batch's columns (or rows) first.
        """
        batch = RowBatch.__new__(RowBatch)
        if self._columns is None:
            batch._columns = None
            batch._rows = self.rows
        else:
            batch._columns = self.columns
            batch._rows = None
        batch._sel = flags
        batch._n = kept
        batch.width = self.width
        return batch

    @property
    def columns(self) -> list[Sequence[Any]]:
        """The columns (selection applied; cached)."""
        cols = self._columns
        if cols is not None and self._sel is None:
            return cols
        sel = self._sel
        if cols is not None:
            cols = [tuple(compress(col, sel)) for col in cols]
        else:
            rows = self._rows
            if sel is not None:
                rows = tuple(compress(rows, sel))
                self._rows = rows
            if rows:
                cols = list(zip(*rows))
            else:
                cols = [()] * self.width
        self._columns = cols
        self._sel = None
        return cols

    @property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        """The row tuples (selection applied; cached)."""
        rows = self._rows
        if rows is not None and self._sel is None:
            return rows
        if rows is not None:
            rows = tuple(compress(rows, self._sel))
            self._sel = None
        else:
            rows = tuple(zip(*self.columns))
        self._rows = rows
        return rows

    def column(self, index: int) -> Sequence[Any]:
        """One materialized column (selection applied). A row-backed
        batch takes just that column from its rows and stays row-backed."""
        if self._columns is None:
            return tuple(map(itemgetter(index), self.rows))
        return self.columns[index]

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __repr__(self) -> str:
        backing = "rows" if self._columns is None else "columns"
        return f"RowBatch({self._n} rows x {self.width} cols, {backing})"


@dataclass
class QueryHandle:
    """Lifecycle and result of one submitted query.

    ``submitted_at``/``finished_at`` are simulated times; ``rows`` is
    filled by the sink stage when the query's pipeline drains. The sink
    hands over whole columnar batches (:meth:`append_batch`) and the
    row tuples materialize lazily on first ``rows`` access — results
    stay columnar end to end unless someone actually reads tuples.
    """

    label: str
    schema: Schema
    submitted_at: float
    group_id: int = -1
    shared: bool = False
    finished_at: Optional[float] = None
    on_complete: Optional[Callable[["QueryHandle"], None]] = None
    _batches: list = field(default_factory=list, repr=False)
    _rows: list[tuple[Any, ...]] = field(default_factory=list, repr=False)

    def append_batch(self, batch) -> None:
        """Collect one result batch (anything exposing ``.rows``)."""
        self._batches.append(batch)

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        """The result tuples (pending batches materialize here)."""
        if self._batches:
            rows = self._rows
            for batch in self._batches:
                rows.extend(batch.rows)
            self._batches.clear()
        return self._rows

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def response_time(self) -> float:
        if self.finished_at is None:
            raise EngineError(f"query {self.label!r} has not finished")
        return self.finished_at - self.submitted_at

    def mark_done(self, now: float) -> None:
        if self.finished_at is not None:
            raise EngineError(f"query {self.label!r} finished twice")
        self.finished_at = now
        if self.on_complete is not None:
            self.on_complete(self)

    def __repr__(self) -> str:
        state = f"done@{self.finished_at:.6g}" if self.done else "running"
        return f"QueryHandle({self.label!r}, {state})"


@dataclass
class GroupHandle:
    """One execution of a (possibly singleton) sharing group: its
    members' handles and its stage tasks (sinks excluded) in spawn
    order, which the engine keeps no other reference to.

    The group owns every task it spawns, sinks included: each task's
    ``owner`` is this handle until the task ends, and a failing task
    reaches :meth:`fail`.
    """

    group_id: int
    pivot_op_id: Optional[str]
    handles: list[QueryHandle]
    tasks: list = field(default_factory=list, repr=False)

    @property
    def size(self) -> int:
        return len(self.handles)

    @property
    def shared(self) -> bool:
        return self.size > 1

    @property
    def done(self) -> bool:
        return all(h.done for h in self.handles)

    def completion_time(self) -> float:
        if not self.done:
            raise EngineError(f"group {self.group_id} has unfinished queries")
        return max(h.finished_at for h in self.handles)

    def fail(self, task, error: BaseException) -> None:
        """One of the group's tasks failed with ``error``.

        The simulator has already marked ``task`` failed and released
        its processor. A failed task stops the simulation: ``error`` is
        raised out of ``Simulator.run``.
        """
        raise error
