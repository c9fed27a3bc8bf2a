"""Buffer pool: unit tests plus property tests over random traces.

The properties the pool must never violate, whatever the access
pattern and eviction policy:

* resident frames never exceed capacity;
* pinned pages are never evicted;
* hit/miss counters are consistent (``hits + misses == accesses``,
  and the hit rate is their ratio).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import (
    BufferPool,
    ClockPolicy,
    DataType,
    LRUPolicy,
    MRUPolicy,
    Schema,
    Table,
    make_policy,
    table_page_key,
)

POLICIES = ("lru", "clock", "mru")


class TestBufferPoolBasics:
    def test_miss_then_hit(self):
        pool = BufferPool(4)
        assert pool.access(("tbl", "t", 0)) is False
        assert pool.access(("tbl", "t", 0)) is True
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(StorageError):
            BufferPool(0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(StorageError, match="unknown eviction policy"):
            BufferPool(4, "fifo")

    def test_policy_instance_accepted(self):
        pool = BufferPool(4, MRUPolicy())
        assert pool.policy.name == "mru"

    def test_make_policy_resolves_names(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("clock"), ClockPolicy)
        assert isinstance(make_policy("mru"), MRUPolicy)

    def test_eviction_at_capacity(self):
        pool = BufferPool(2)
        pool.access(("tbl", "t", 0))
        pool.access(("tbl", "t", 1))
        pool.access(("tbl", "t", 2))
        assert len(pool) == 2
        assert pool.stats.evictions == 1

    def test_lru_evicts_least_recent(self):
        pool = BufferPool(2, "lru")
        pool.access(("tbl", "t", 0))
        pool.access(("tbl", "t", 1))
        pool.access(("tbl", "t", 0))  # refresh page 0
        pool.access(("tbl", "t", 2))  # evicts page 1
        assert ("tbl", "t", 0) in pool
        assert ("tbl", "t", 1) not in pool

    def test_mru_evicts_most_recent(self):
        pool = BufferPool(2, "mru")
        pool.access(("tbl", "t", 0))
        pool.access(("tbl", "t", 1))
        pool.access(("tbl", "t", 2))  # evicts page 1 (most recent)
        assert ("tbl", "t", 0) in pool
        assert ("tbl", "t", 1) not in pool

    def test_clock_gives_second_chance(self):
        pool = BufferPool(2, "clock")
        pool.access(("tbl", "t", 0))
        pool.access(("tbl", "t", 1))
        # Both referenced; the hand clears 0 then 1, wraps, evicts 0.
        pool.access(("tbl", "t", 2))
        assert len(pool) == 2
        assert pool.stats.evictions == 1

    def test_pin_blocks_eviction(self):
        pool = BufferPool(2, "lru")
        pool.access(("tbl", "t", 0), pin=True)
        pool.access(("tbl", "t", 1))
        pool.access(("tbl", "t", 2))  # must evict page 1, not pinned 0
        assert ("tbl", "t", 0) in pool

    def test_all_pinned_raises(self):
        pool = BufferPool(2)
        pool.access(("tbl", "t", 0), pin=True)
        pool.access(("tbl", "t", 1), pin=True)
        with pytest.raises(StorageError, match="pinned"):
            pool.access(("tbl", "t", 2))

    def test_unpin_restores_evictability(self):
        pool = BufferPool(1)
        pool.access(("tbl", "t", 0), pin=True)
        pool.unpin(("tbl", "t", 0))
        pool.access(("tbl", "t", 1))
        assert ("tbl", "t", 0) not in pool

    def test_pin_non_resident_raises(self):
        pool = BufferPool(1)
        with pytest.raises(StorageError, match="non-resident"):
            pool.pin(("tbl", "t", 0))

    def test_unpin_unpinned_raises(self):
        pool = BufferPool(1)
        pool.access(("tbl", "t", 0))
        with pytest.raises(StorageError, match="not pinned"):
            pool.unpin(("tbl", "t", 0))

    def test_admit_counts_neither_hit_nor_miss(self):
        pool = BufferPool(2)
        pool.admit(("tbl", "t", 0))
        assert pool.stats.accesses == 0
        assert pool.access(("tbl", "t", 0)) is True

    def test_discard_is_not_an_eviction(self):
        pool = BufferPool(2)
        pool.access(("tbl", "t", 0))
        pool.discard(("tbl", "t", 0))
        assert ("tbl", "t", 0) not in pool
        assert pool.stats.evictions == 0

    def test_prewarm_matches_scan_keys(self):
        table = Table("warm", Schema([("a", DataType.INT)]))
        table.insert_many([(i,) for i in range(130)])
        pool = BufferPool(16)
        pages = pool.prewarm_table(table, page_rows=64)
        assert pages == 3  # ceil(130 / 64)
        for index in range(pages):
            assert table_page_key("warm", index) in pool

    @pytest.mark.parametrize("policy", POLICIES)
    def test_hit_rate_grows_with_capacity_on_a_repeated_scan(self, policy):
        rates = []
        for capacity in (4, 16, 32):
            pool = BufferPool(capacity, policy)
            for _ in range(2):
                for index in range(24):
                    pool.access(table_page_key("t", index))
            rates.append(pool.stats.hit_rate)
        assert rates == sorted(rates)
        # A pool bigger than the table: the second pass is all hits.
        assert rates[-1] == 0.5


class TestSpillFile:
    def test_round_trip_counts_pages(self):
        pool = BufferPool(8)
        spill = pool.spill_file(page_rows=4)
        written = spill.append_rows([(i,) for i in range(10)])
        written += spill.flush()
        assert written == 3  # 4 + 4 + 2
        assert spill.page_count == 3
        assert pool.stats.spill_pages_written == 3
        pages, misses = spill.read_all()
        assert [row for page in pages for row in page.rows] == [
            (i,) for i in range(10)
        ]
        assert misses == 0  # still resident in an 8-frame pool
        assert pool.stats.spill_pages_read == 3

    def test_read_misses_when_evicted(self):
        pool = BufferPool(2)
        spill = pool.spill_file(page_rows=2)
        spill.append_rows([(i,) for i in range(8)])  # 4 pages through 2 frames
        pages, misses = spill.read_all()
        assert len(pages) == 4
        assert misses >= 2  # early pages were pushed out by later ones
        assert [row for page in pages for row in page.rows] == [
            (i,) for i in range(8)
        ]

    def test_drop_releases_frames(self):
        pool = BufferPool(8)
        spill = pool.spill_file(page_rows=2)
        spill.append_rows([(1,), (2,)])
        assert len(pool) == 1
        spill.drop()
        assert len(pool) == 0
        with pytest.raises(StorageError, match="dropped"):
            spill.append_rows([(3,)])

    def test_poolless_file_always_misses(self):
        from repro.storage.buffer import SpillFile

        spill = SpillFile(None, 1, page_rows=2)
        spill.append_rows([(1,), (2,), (3,)])
        spill.flush()
        pages, misses = spill.read_all()
        assert len(pages) == 2
        assert misses == 2


# -- property tests ------------------------------------------------------

# One step of a random trace: (operation, page index). Pins are rare
# enough that capacity is not exhausted by them (capacity >= 4,
# pinned pages <= 3).
_ops = st.sampled_from(["access", "access_pin", "unpin", "admit", "discard"])
_steps = st.lists(st.tuples(_ops, st.integers(0, 30)), max_size=120)


def _apply_trace(pool, steps):
    """Drive a pool through a trace; returns the set of pinned keys."""
    pinned: dict = {}
    for op, index in steps:
        key = ("tbl", "t", index)
        if op == "access":
            pool.access(key)
        elif op == "access_pin":
            if sum(pinned.values()) < pool.capacity - 1:
                pool.access(key, pin=True)
                pinned[key] = pinned.get(key, 0) + 1
        elif op == "unpin":
            if pinned.get(key):
                pool.unpin(key)
                pinned[key] -= 1
        elif op == "admit":
            pool.admit(key)
        elif op == "discard":
            if not pinned.get(key):
                pool.discard(key)
    return {key for key, count in pinned.items() if count}


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(4, 12),
    steps=_steps,
)
def test_pool_never_exceeds_capacity(policy, capacity, steps):
    pool = BufferPool(capacity, policy)
    _apply_trace(pool, steps)
    assert len(pool) <= capacity


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(4, 12),
    steps=_steps,
)
def test_pinned_pages_survive_any_trace(policy, capacity, steps):
    pool = BufferPool(capacity, policy)
    pinned = _apply_trace(pool, steps)
    for key in pinned:
        assert key in pool
        assert pool.is_pinned(key)


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(4, 12),
    steps=_steps,
)
def test_hit_stats_consistent(policy, capacity, steps):
    pool = BufferPool(capacity, policy)
    accesses = sum(1 for op, _ in steps if op == "access")
    _apply_trace(pool, steps)
    # access_pin may be skipped to protect capacity, so only count
    # plain accesses as the lower bound and read the rest from stats.
    assert pool.stats.accesses >= accesses
    assert pool.stats.hits + pool.stats.misses == pool.stats.accesses
    if pool.stats.accesses:
        expected = pool.stats.hits / pool.stats.accesses
        assert pool.stats.hit_rate == pytest.approx(expected)
    else:
        assert pool.stats.hit_rate == 0.0


@settings(max_examples=80, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(2, 8),
    indexes=st.lists(st.integers(0, 20), min_size=1, max_size=80),
)
def test_resident_set_is_exact_under_pure_accesses(policy, capacity, indexes):
    """With only accesses, residency count == min(distinct, capacity)
    and every miss is a first touch or a re-fetch after eviction."""
    pool = BufferPool(capacity, policy)
    distinct = len({i for i in indexes})
    for i in indexes:
        pool.access(("tbl", "t", i))
    assert len(pool) == min(distinct, capacity)
    assert pool.stats.misses >= min(distinct, capacity)
    assert pool.stats.evictions == pool.stats.misses - len(pool)
