"""Columnar in-memory tables.

Tables store data column-wise, which matches the scan-dominated access
pattern of the paper's workloads and makes projected scans cheap. Rows
are materialized as tuples only when an operator needs them.

**The format.** A stored column is a *tuple of scalars*, and so is
every slice decoded from it: readers can not write to what they share
with the page cache, and CPython's cyclic collector — which visits
every cell of a list on every full collection — untracks a tuple of
scalars the first time it sees it and never walks it again.
"""

from __future__ import annotations

import weakref
from itertools import count
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.lru import WeightedLRU
from repro.storage.page import DEFAULT_PAGE_ROWS, Page
from repro.storage.schema import Schema

__all__ = ["Table", "PAGE_CACHE"]


def _drop_slots(key: Hashable, table_ref: weakref.ref) -> None:
    """Eviction drops the *table's* reference only: a scan in flight
    keeps the slot list it attached, so no row or clock can change."""
    table = table_ref()
    if table is not None:
        table._page_cache.pop(key[1], None)


def _forget(serial: int, page_cache: dict) -> None:
    """Take one table's slot lists out of the budget (ingest, or the
    table died: a dead table's upper bounds must not push live
    signatures out)."""
    for key in page_cache:
        PAGE_CACHE.pop((serial, key))
    page_cache.clear()


# The ceiling on decoded pages: 2 M cells (rows x columns) for the whole
# process — one budget across every table of every catalog, so eight
# tables times N catalogs cannot multiply it. Maps (table serial,
# slot-list key) -> weak table, weighted by the slot list's upper
# bound; the tables own the slot lists (they die with their table),
# this only orders them for eviction, least recently *attached* first.
# Sized from the repository benchmark's traffic, by that upper bound:
# the memo-hot workloads re-attach 0.02-0.64 M cells of fused lists
# every round (as much again in plain slices under them, which age out
# first once the fused lists are full), an ad-hoc session parks 0.46 M
# per round and never reads them again — so 2 M keeps every hot working
# set with 3x headroom and caps ad-hoc garbage at three to four rounds'
# worth.
PAGE_CACHE = WeightedLRU(2_000_000, on_evict=_drop_slots)
_SERIALS = count()


class Table:
    """An append-only, memory-resident, columnar table.

    Every reader (:meth:`column`, :meth:`row`, :meth:`scan_pages`,
    :meth:`column_slices`) sees tuple columns. Ingest appends to list
    buffers and the first read after it *seals* them into tuples, so a
    burst of inserts is linear in the rows inserted; an ingest after a
    read *unseals* (copies the tuples back into lists), which costs
    O(table) — the order of the page-cache invalidation beside it. Load
    in bulk (:meth:`insert_many`), then read.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name:
            raise StorageError("table name must be non-empty")
        self.name = name
        self.schema = schema
        # Tuples while sealed, list buffers between an ingest and the
        # next read; readers go through ``_sealed()``, never this.
        self._columns: list[Sequence[Any]] = [() for _ in schema.columns]
        self._is_sealed = True
        # Decoded-page cache for the scan stage: per
        # (projection, page_rows) key, the lazily filled list of column
        # slices of each page. Cleared on ingest, evicted whole (least
        # recently attached first) under ``PAGE_CACHE``'s budget, and
        # dropped from that budget the moment the table dies.
        self._page_cache: dict[tuple, list] = {}
        self._serial = next(_SERIALS)
        weakref.finalize(self, _forget, self._serial, self._page_cache)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"

    # -- ingest ----------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> None:
        """Validate and append one row."""
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        """Validate and append ``rows`` — the one ingest path.

        Column-wise (:meth:`Schema.validate_rows`) and all-or-nothing:
        every column is validated before any is extended, so a
        :class:`~repro.errors.SchemaError` leaves the table as it was.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if not rows:
            return
        stored = self.schema.validate_rows(rows)
        if self._is_sealed:
            self._columns = [list(column) for column in self._columns]
            self._is_sealed = False
        for column, values in zip(self._columns, stored):
            column.extend(values)
        _forget(self._serial, self._page_cache)

    def _sealed(self) -> list[tuple[Any, ...]]:
        """The columns as tuples (what every reader goes through)."""
        columns = self._columns
        if not self._is_sealed:
            for i, column in enumerate(columns):  # in place: one transient copy at a time
                columns[i] = tuple(column)
            self._is_sealed = True
        return columns

    # -- access ----------------------------------------------------------

    def column(self, name: str) -> tuple[Any, ...]:
        """One whole column, as the tuple the table stores."""
        return self._sealed()[self.schema.index_of(name)]

    def row(self, i: int) -> tuple[Any, ...]:
        if not (0 <= i < len(self)):
            raise StorageError(f"row index {i} out of range for {self.name!r}")
        return tuple(column[i] for column in self._sealed())

    def rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(len(self)):
            yield self.row(i)

    def scan_pages(
        self,
        columns: Sequence[str] | None = None,
        page_rows: int = DEFAULT_PAGE_ROWS,
    ) -> Iterator[Page]:
        """Iterate the table as pages, optionally projecting columns.

        This is the physical scan the engine's scan stage drives; the
        projection happens here so pages carry only the needed data.
        """
        if page_rows < 1:
            raise StorageError(f"page_rows must be >= 1, got {page_rows}")
        cols = self._project(columns)
        n = len(self)
        for start in range(0, n, page_rows):
            end = min(start + page_rows, n)
            rows = list(zip(*(col[start:end] for col in cols)))
            if rows:
                yield Page(rows)

    def _project(self, columns: Sequence[str] | None) -> list[tuple[Any, ...]]:
        cols = self._sealed()
        if columns is None:
            return cols
        return [cols[self.schema.index_of(c)] for c in columns]

    def page_count(self, page_rows: int = DEFAULT_PAGE_ROWS) -> int:
        """Number of pages a scan of this table touches."""
        if page_rows < 1:
            raise StorageError(f"page_rows must be >= 1, got {page_rows}")
        return -(-len(self) // page_rows)

    def column_slices(
        self,
        index: int,
        columns: Sequence[str] | None = None,
        page_rows: int = DEFAULT_PAGE_ROWS,
    ) -> list[tuple[Any, ...]]:
        """One page's worth of raw column slices (columnar page access).

        Page ``i`` covers rows ``[i * page_rows, (i+1) * page_rows)``,
        matching :meth:`scan_pages` and the buffer pool's
        :func:`~repro.storage.buffer.table_page_key` convention; random
        access because cooperative (elevator) scans start mid-table and
        wrap around rather than walking from row 0. The page stays
        column-wise — the scan stage wraps these slices into a
        :class:`~repro.engine.packet.RowBatch` without ever zipping
        rows the downstream may never materialize.

        Decoded pages are cached per (projection, page_rows) until the
        next ingest or eviction, so concurrent scans of one table (and
        repeated scans across queries) slice each page once. Each slice
        is a tuple (a slice of a tuple column) shared with the cache.
        Every call makes the projection the most recently used under
        the page budget: this is the scan stage's *miss* path (a
        fused-memo hit never gets here), where the touch is noise beside
        the decode that follows and keeps the projection an ad-hoc
        stream reads on every page.
        """
        key = (None if columns is None else tuple(columns), page_rows)
        pages = self._page_cache.get(key)
        if pages is not None and 0 <= index < len(pages):
            PAGE_CACHE.get((self._serial, key))
            cached = pages[index]
            if cached is not None:
                return cached
        if page_rows < 1:
            raise StorageError(f"page_rows must be >= 1, got {page_rows}")
        n_pages = self.page_count(page_rows)
        if not (0 <= index < n_pages):
            raise StorageError(
                f"page index {index} out of range for {self.name!r} "
                f"({n_pages} pages at {page_rows} rows/page)"
            )
        cols = self._project(columns)
        start = index * page_rows
        end = min(start + page_rows, len(self))
        slices = [col[start:end] for col in cols]
        if pages is None:
            pages = self._attach(key, n_pages, len(cols))
        pages[index] = slices
        return slices

    def _attach(self, key: tuple, n_pages: int, width: int) -> list:
        """A fresh slot list under ``key``, charged to the process-wide
        budget at its upper bound (every row, ``width`` columns) — so
        filling a slot never touches a counter. A list heavier than the
        whole budget is evicted on the spot: the caller still fills and
        reads it, the table just does not keep it."""
        pages = self._page_cache[key] = [None] * n_pages
        PAGE_CACHE.put((self._serial, key), weakref.ref(self), len(self) * width)
        return pages

    def fused_cache(self, key: tuple, n_pages: int, width: int) -> list:
        """Per-page memo slots for a derived (fused) scan of this table.

        The engine's scan stage parks its decoded/filtered/projected
        pages here, keyed by the scan's signature, so queries that
        perform the same scan work — re-submissions, convoy members,
        recurring templates — decode and filter each page once. This
        is the storage-side analogue of the engine's cross-query work
        sharing, and it shares the ingest invalidation and the budget
        of the plain page cache (``width`` is the scan's output width,
        its weight per row). Slots start as ``None``; entries are shared,
        and the batches parked in them carry tuple columns. Each call is
        one *attach*: it makes
        the signature the most recently used, which is all the recency
        the budget keeps of a fused scan — reading or filling a slot
        stays a bare list index.
        """
        pages = self._page_cache.get(key)
        if pages is None or len(pages) != n_pages:
            return self._attach(key, n_pages, width)
        PAGE_CACHE.get((self._serial, key))
        return pages

    def projected_schema(self, columns: Sequence[str] | None) -> Schema:
        return self.schema if columns is None else self.schema.project(columns)
