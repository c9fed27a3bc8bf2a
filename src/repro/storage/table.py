"""Columnar in-memory tables.

Tables store data column-wise, which matches the scan-dominated access
pattern of the paper's workloads and makes projected scans cheap. Rows
are materialized as tuples only when an operator needs them.

**The format.** A stored column is a *tuple of scalars*, and so is
every slice decoded from it: readers can not write to what they share
with the page cache, and CPython's cyclic collector — which visits
every cell of a list on every full collection — untracks a tuple of
scalars the first time it sees it and never walks it again.

**Encoded columns.** A column whose values come from a small domain may
be stored as *codes* (:meth:`Table.encode`), each in the narrowest
buffer item that fits (a byte up to 256 values), until a read builds
the tuple from them.
"""

from __future__ import annotations

import weakref
from array import array
from functools import partial
from itertools import count
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from repro.errors import SchemaError, StorageError
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


# The ceiling on memoized scan pages: 2 M cells (rows x columns) for the whole
# process — one budget across every table of every catalog, so eight
# tables times N catalogs cannot multiply it. Maps (table serial,
# slot-list key) -> weak table, weighted by the slot list's upper
# bound; the tables own the slot lists (they die with their table),
# this only orders them for eviction, least recently *attached* first.
# A fused signature's first attach parks a *ghost* (an empty slot list
# at the same weight) and its pages only from the second, so an ad-hoc
# stream's once-only signatures cost the budget a weight and no cells.
# Raw column slices are never parked (``Table.column_slices`` re-slices
# the stored tuples), so the budget holds fused signatures and ghosts
# only. Sized from the repository benchmark's traffic, by that upper
# bound: the memo-hot workloads re-attach 0.02-0.64 M cells of fused
# lists every round, an ad-hoc session attaches 0.46 M per round as
# ghosts — so 2 M keeps every hot working set with 3x headroom and
# holds three to four rounds of ad-hoc ghosts.
PAGE_CACHE = WeightedLRU(2_000_000, on_evict=_drop_slots)
_SERIALS = count()


def _code_buffer(size: int) -> bytearray | array:
    """An empty buffer for codes into a domain of ``size`` values: a
    byte each up to 256 values, else the narrowest ``array`` that fits."""
    if size <= 256:
        return bytearray()
    return next(array(t) for t in "HILQ" if 256 ** array(t).itemsize >= size)


_BYTES = bytes(range(256))


def _packed(
    name: str, codes: bytearray | array, values: Sequence[Any], size: int
) -> bytearray | array:
    """``values``, codes into a domain of ``size`` values, in a new buffer
    of ``codes``' kind; a value that is not an ``int`` in ``range(size)``
    raises :class:`SchemaError`. Each check is one pass in C: the types
    present (a ``bool`` is not an ``int``), the buffer's conversion (a
    negative, or a value wider than its item, raises) and the range."""
    if set(map(type, values)) <= {int}:
        try:
            if type(codes) is bytearray:
                packed = bytearray(values)
                if not packed.translate(None, _BYTES[:size]):  # no byte left past size
                    return packed
            elif max(values) < size:
                return array(codes.typecode, values)
        except (ValueError, OverflowError):
            pass
    bad = next(v for v in values if type(v) is not int or not 0 <= v < size)
    raise SchemaError(f"column {name!r} expects a code in range({size}), got {bad!r}")


def _decode(domain: tuple, codes: bytearray | array) -> tuple:
    return tuple(map(domain.__getitem__, codes))


class Table:
    """An append-only, memory-resident, columnar table.

    Every reader (:meth:`column`, :meth:`row`, :meth:`scan_pages`,
    :meth:`column_slices`) sees tuple columns. Ingest appends to list
    buffers and the first read after it *seals* them into tuples, so a
    burst of inserts is linear in the rows inserted; an ingest after a
    read *unseals* (copies the tuples back into lists), which costs
    O(table) — the order of the page-cache invalidation beside it. Load
    in bulk (:meth:`insert_many`), then read. A column may be deferred
    (:meth:`defer`) or held as codes into a small domain (:meth:`encode`).
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name:
            raise StorageError("table name must be non-empty")
        self.name = name
        self.schema = schema
        # Tuples once read, list buffers between an ingest and the next
        # read, or a deferred or encoded column's build; readers go
        # through ``_seal``.
        self._columns: list[Sequence[Any]] = [() for _ in schema.columns]
        # Per encoded column position: its domain and its codes, one per
        # row. Ingest appends to the codes; they are never unsealed.
        self._encoded: dict[int, tuple[tuple, bytearray | array]] = {}
        self._rows = 0
        # Per column: has any stored value ever been NULL? Set at
        # ingest, never cleared (the table is append-only).
        self._has_null = [False] * len(schema.columns)
        # Per projection, its column positions (all tuples: ingest and
        # ``defer`` clear this): resolved once, not on every page a scan reads.
        self._positions: dict[tuple[str, ...], tuple[int, ...]] = {}
        # The fused-scan memo (``fused_cache``): per signature, its
        # ghost or its lazily filled list of transformed pages. Cleared
        # on ingest, evicted whole (least recently attached first) under
        # ``PAGE_CACHE``'s budget, and dropped from that budget the
        # moment the table dies.
        self._page_cache: dict[tuple, list] = {}
        self._serial = next(_SERIALS)
        weakref.finalize(self, _forget, self._serial, self._page_cache)

    def __len__(self) -> int:
        return self._rows

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
        The same pass records which columns now hold a NULL
        (:meth:`not_null`). An encoded column's place in a row holds
        its code (:meth:`encode`).
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if not rows:
            return
        encoded, columns = self._encoded, self._columns
        stored = self.schema.validate_rows(rows, encoded)
        packed = {
            i: _packed(self.schema.columns[i].name, codes, stored[i][0], len(domain))
            for i, (domain, codes) in encoded.items()
        }
        plain = [i for i in range(len(columns)) if i not in encoded]
        if any(type(columns[i]) is not list for i in plain):  # read, or deferred
            self._seal(plain)
            for i in plain:
                columns[i] = list(columns[i])
        self._positions.clear()
        for i, (values, has_null) in enumerate(stored):
            if i in encoded:
                domain, codes = encoded[i]
                codes += packed[i]
                columns[i] = partial(_decode, domain, codes)
            else:
                columns[i].extend(values)
                self._has_null[i] |= has_null
        self._rows += len(rows)
        _forget(self._serial, self._page_cache)

    def encode(self, name: str, domain: Sequence[Any]) -> None:
        """Store column ``name`` as codes into ``domain`` from now on: each
        ingested row carries, in that column's place, the index of its value
        in ``domain`` (an ``int`` in ``range(len(domain))``), kept in a
        byte, or in the narrowest array item that fits. A projection naming
        the column or a whole-row read builds it from the codes; an ingest
        after that appends codes. ``domain`` holds the column's stored type
        only and no NULL; the table must be empty."""
        i = self.schema.index_of(name)
        if self._rows:
            raise StorageError(f"{self.name}.{name}: only an empty table's column is encoded")
        domain = tuple(domain)
        values, has_null = self.schema.validate_column(i, domain)
        if has_null or values is not domain:
            raise SchemaError(f"column {name!r}: a domain holds its stored type and no NULL")
        codes = _code_buffer(len(domain))
        self._encoded[i] = domain, codes
        self._columns[i] = partial(_decode, domain, codes)
        self._positions.clear()

    def defer(self, name: str, build: Callable[[], Sequence[Any]]) -> None:
        """Hold column ``name`` as ``build`` until a projection naming it, a
        whole-row read or an ingest calls it for the values (one per row held
        now, none NULL, validated as ingest does); a bad build raises."""
        i = self.schema.index_of(name)
        self._encoded.pop(i, None)
        self._columns[i] = build
        self._positions.clear()

    def _seal(self, positions: Sequence[int] | None = None) -> list[tuple[Any, ...]]:
        """The columns, each list buffer sealed into a tuple in place (one
        transient copy at a time) and each deferred or encoded column at
        ``positions`` (every one when ``None``: what whole-row readers go
        through) built."""
        columns = self._columns
        for i, column in enumerate(columns):
            if type(column) is list:
                columns[i] = tuple(column)
            elif callable(column) and (positions is None or i in positions):
                values, has_null = column(), False
                if i not in self._encoded:  # codes and their domain were checked
                    values, has_null = self.schema.validate_column(i, values)
                if has_null or len(values) != self._rows:
                    raise StorageError(f"{self.name}.{self.schema.columns[i].name}: bad build")
                columns[i] = tuple(values)
        return columns

    # -- access ----------------------------------------------------------

    def column(self, name: str) -> tuple[Any, ...]:
        """One whole column, as the tuple the table stores."""
        return self._project((name,))[0]

    def not_null(self, columns: Sequence[str] | None = None) -> frozenset[int]:
        """Positions in ``columns`` (every column when ``None``) whose
        stored values include no NULL — as of now: an ingest that stores
        a NULL takes its column out for good. An encoded column is in:
        its domain holds no NULL."""
        if columns is None:
            flags = self._has_null
        else:
            index_of = self.schema.index_of
            flags = [self._has_null[index_of(name)] for name in columns]
        return frozenset(i for i, has_null in enumerate(flags) if not has_null)

    def row(self, i: int) -> tuple[Any, ...]:
        if not (0 <= i < len(self)):
            raise StorageError(f"row index {i} out of range for {self.name!r}")
        return tuple(column[i] for column in self._seal())

    def rows(self) -> Iterator[tuple[Any, ...]]:
        yield from zip(*self._seal())

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
        if columns is None:
            return self._seal()
        key = tuple(columns)
        positions = self._positions.get(key)
        if positions is None:
            self._seal(positions := tuple(map(self.schema.index_of, key)))
            self._positions[key] = positions
        cols = self._columns
        return [cols[i] for i in positions]

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

        Nothing is kept: each call slices the sealed column tuples
        afresh (the projection's positions are resolved once). This is
        the scan stage's *miss* path — a fused-memo hit never gets here;
        a signature's first scan, which holds only a ghost, always does
        — so a re-cut costs a few µs per missed page, and no slice a
        scan read stays resident after it.
        """
        n_pages = self.page_count(page_rows)  # checks ``page_rows``
        if not (0 <= index < n_pages):
            raise StorageError(
                f"page index {index} out of range for {self.name!r} "
                f"({n_pages} pages at {page_rows} rows/page)"
            )
        start = index * page_rows
        end = start + page_rows
        return [col[start:end] for col in self._project(columns)]

    def _attach(self, key: tuple, pages: Sequence, width: int) -> Sequence:
        """Park ``pages`` under ``key``, charged to the process-wide
        budget at its upper bound (every row, ``width`` columns) — so
        filling a slot never touches a counter. A list heavier than the
        whole budget is evicted on the spot: the caller still fills and
        reads it, the table just does not keep it."""
        self._page_cache[key] = pages
        PAGE_CACHE.put((self._serial, key), weakref.ref(self), len(self) * width)
        return pages

    def fused_cache(self, key: tuple, n_pages: int, width: int) -> list | None:
        """Per-page memo slots for a derived (fused) scan of this table,
        or ``None`` on the signature's first attach.

        The engine's scan stage parks its decoded/filtered/projected
        pages here, keyed by the scan's signature, so queries that
        perform the same scan work — re-submissions, convoy members,
        recurring templates — decode and filter each page once. This
        is the storage-side analogue of the engine's cross-query work
        sharing, and the only state a table keeps for its scans: it is
        dropped on ingest and weighed under ``PAGE_CACHE``'s budget
        (``width`` is the scan's output width, its weight per row),
        while a plain projection is re-sliced on every read
        (:meth:`column_slices`). Slots start as ``None``; entries are
        shared, and the batches parked in them carry tuple columns.

        Admission is 2Q's: a signature the table does not know gets a
        *ghost* — an empty slot list under ``key``, weighed, aged,
        evicted, invalidated and forgotten exactly as a real one — and
        ``None``, so that scan parks nothing; an attach that finds the
        ghost gets real slots. A signature read once (an ad-hoc query's
        constants) then costs the budget its weight and holds no page.
        Each call is one *attach*: it makes the signature the most
        recently used, which is all the recency the budget keeps of a
        fused scan — reading or filling a slot stays a bare list index.
        """
        pages = self._page_cache.get(key)
        if pages is None:
            self._attach(key, (), width)
            return None
        if len(pages) != n_pages:
            return self._attach(key, [None] * n_pages, width)
        PAGE_CACHE.get((self._serial, key))
        return pages

    def projected_schema(self, columns: Sequence[str] | None) -> Schema:
        return self.schema if columns is None else self.schema.project(columns)
