"""SpillCursor: prefetched spill read-back conserves the I/O bill.

The cursor must be a drop-in replacement for ``SpillFile.read_all``:
same pages in the same order, same miss accounting at depth 0, and at
any depth the ``io_page`` bill must split exactly between synchronous
stall, CPU-overlapped prefetch, and still-in-flight reads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import BufferPool, SpillCursor

IO_PAGE = 100.0


def _spill_file(pool_pages, page_rows, n_rows, churn=0):
    """A flushed spill file plus ``churn`` unrelated pool accesses.

    The churn evicts some (or all) of the file's still-resident pages,
    so read-back sees an arbitrary mix of hits and misses.
    """
    pool = BufferPool(pool_pages)
    spill = pool.spill_file(page_rows)
    spill.append_rows([(i, i * 2) for i in range(n_rows)])
    spill.flush()
    for i in range(churn):
        pool.access(("tbl", "noise", i))
    return pool, spill


def _walk(cursor, credit):
    pages = []
    while not cursor.exhausted:
        page, _ = cursor.next_page(credit)
        pages.append(page)
    return pages


class TestParityWithReadAll:
    @given(
        pool_pages=st.integers(min_value=1, max_value=32),
        page_rows=st.integers(min_value=1, max_value=8),
        n_rows=st.integers(min_value=1, max_value=150),
        churn=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_depth_zero_matches_read_all(self, pool_pages, page_rows, n_rows, churn):
        """Same pages, same misses, same pool counters as read_all."""
        pool_a, spill_a = _spill_file(pool_pages, page_rows, n_rows, churn)
        pool_b, spill_b = _spill_file(pool_pages, page_rows, n_rows, churn)

        pages_a, misses_a = spill_a.read_all()
        cursor = SpillCursor(spill_b, IO_PAGE, prefetch_depth=0)
        pages_b = _walk(cursor, credit=0.0)

        assert [p.rows for p in pages_b] == [p.rows for p in pages_a]
        assert cursor.misses == misses_a
        assert cursor.stall_cost == misses_a * IO_PAGE
        assert cursor.overlapped_cost == 0.0
        assert pool_b.stats.spill_pages_read == pool_a.stats.spill_pages_read
        assert pool_b.stats.misses == pool_a.stats.misses
        assert pool_b.stats.hits == pool_a.stats.hits

    @given(
        pool_pages=st.integers(min_value=2, max_value=64),
        page_rows=st.integers(min_value=1, max_value=8),
        n_rows=st.integers(min_value=1, max_value=150),
        churn=st.integers(min_value=0, max_value=80),
        depth=st.integers(min_value=0, max_value=6),
        credit=st.floats(min_value=0.0, max_value=3 * IO_PAGE),
    )
    @settings(max_examples=80, deadline=None)
    def test_io_conservation_at_any_depth(
        self, pool_pages, page_rows, n_rows, churn, depth, credit
    ):
        """stall + overlapped + in-flight + wasted == reads * io_page."""
        _, spill = _spill_file(pool_pages, page_rows, n_rows, churn)
        cursor = SpillCursor(spill, IO_PAGE, prefetch_depth=depth)
        pages = _walk(cursor, credit)

        assert len(pages) == spill.page_count
        total = (
            cursor.stall_cost
            + cursor.overlapped_cost
            + cursor.pending_cost()
            + cursor.wasted_cost
        )
        assert total == pytest.approx(cursor.misses * IO_PAGE)

    @given(
        pool_pages=st.integers(min_value=2, max_value=64),
        page_rows=st.integers(min_value=1, max_value=8),
        n_rows=st.integers(min_value=1, max_value=150),
        depth=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_identical_at_any_depth(self, pool_pages, page_rows, n_rows, depth):
        """Prefetch never changes the data, only its timing."""
        _, spill_a = _spill_file(pool_pages, page_rows, n_rows, churn=pool_pages)
        _, spill_b = _spill_file(pool_pages, page_rows, n_rows, churn=pool_pages)
        pages_a, _ = spill_a.read_all()
        cursor = SpillCursor(spill_b, IO_PAGE, prefetch_depth=depth)
        pages_b = _walk(cursor, credit=IO_PAGE / 2)
        assert [p.rows for p in pages_b] == [p.rows for p in pages_a]


class TestOverlap:
    def test_prefetch_converts_stall_into_overlap(self):
        """With CPU credit flowing, depth > 0 strictly cuts the stall."""
        _, spill_sync = _spill_file(8, 4, 200, churn=8)
        _, spill_pf = _spill_file(8, 4, 200, churn=8)

        sync = SpillCursor(spill_sync, IO_PAGE, prefetch_depth=0)
        _walk(sync, credit=IO_PAGE / 2)
        prefetched = SpillCursor(spill_pf, IO_PAGE, prefetch_depth=2)
        _walk(prefetched, credit=IO_PAGE / 2)

        assert prefetched.stall_cost < sync.stall_cost
        assert prefetched.overlapped_cost > 0
        assert sync.overlapped_cost == 0

    def test_pool_aggregates_cursor_traffic(self):
        pool, spill = _spill_file(8, 4, 200, churn=8)
        cursor = SpillCursor(spill, IO_PAGE, prefetch_depth=2)
        _walk(cursor, credit=IO_PAGE / 2)

        assert pool.stats.spill_prefetch_issued == cursor.prefetch_issued
        assert pool.stats.spill_read_stall == pytest.approx(cursor.stall_cost)
        assert pool.stats.spill_read_overlapped == pytest.approx(
            cursor.overlapped_cost
        )

    def test_no_pool_degenerates_to_synchronous_reads(self):
        pool, spill = _spill_file(8, 4, 40)
        spill.pool = None
        cursor = SpillCursor(spill, IO_PAGE, prefetch_depth=4)
        _walk(cursor, credit=IO_PAGE)
        assert cursor.misses == spill.page_count
        assert cursor.stall_cost == spill.page_count * IO_PAGE
        assert cursor.prefetch_issued == 0


class TestErrors:
    def test_exhausted_cursor_raises(self):
        _, spill = _spill_file(8, 4, 4)
        cursor = SpillCursor(spill, IO_PAGE)
        _walk(cursor, credit=0.0)
        with pytest.raises(StorageError):
            cursor.next_page()

    def test_negative_credit_rejected(self):
        _, spill = _spill_file(8, 4, 4)
        cursor = SpillCursor(spill, IO_PAGE)
        with pytest.raises(StorageError):
            cursor.next_page(-1.0)

    def test_negative_depth_rejected(self):
        _, spill = _spill_file(8, 4, 4)
        with pytest.raises(StorageError):
            SpillCursor(spill, IO_PAGE, prefetch_depth=-1)

    def test_page_at_bounds_checked(self):
        _, spill = _spill_file(8, 4, 4)
        with pytest.raises(StorageError):
            spill.page_at(99)
