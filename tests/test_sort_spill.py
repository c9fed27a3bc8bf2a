"""The grant-governed external sort is invisible to consumers.

At every ``work_mem`` the external-merge path must reproduce the
unbounded in-memory sort bit for bit — rows, order, and tie order —
so order-sensitive consumers (limit, merge join) cannot tell the
difference; the run/merge-pass arithmetic must match the grant; and
spill traffic must grow monotonically as the budget shrinks.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, RuntimeConfig
from repro.engine import (
    CostModel,
    Engine,
    MemoryBroker,
    aggregate,
    execute_reference,
    limit,
    merge_join,
    project,
    scan,
    sort,
)
from repro.engine.expressions import col
from repro.engine.memory import grant_notes
from repro.engine.operators.sort import (
    batch_key_builder,
    merge_spans,
    plan_merge_passes,
    sort_rows,
)
from repro.engine.packet import RowBatch
from repro.engine.plan import AggSpec
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.simulator import Simulator
from repro.storage import BufferPool, Catalog, DataType, Schema

COSTS = CostModel(io_page=100.0, spill_page=120.0)
PAGE_ROWS = 16


def _catalog(rows=3000, groups=37):
    catalog = Catalog()
    schema = Schema(
        [("g", DataType.INT), ("s", DataType.STR), ("k", DataType.INT)]
    )
    data = [
        (i % groups, f"name{(i * 7) % 11:02d}", i)
        for i in range(rows)
    ]
    catalog.create("t", schema).insert_many(data)
    return catalog


def _sort_plan(catalog, keys=None, top_n=None):
    plan = sort(
        scan(catalog, "t", columns=["g", "s", "k"], op_id="s"),
        keys or [("g", True), ("k", False)],
        op_id="big_sort",
    )
    if top_n is not None:
        plan = limit(plan, top_n, op_id="topn")
    return plan


def _execute(catalog, plan, work_mem=None, processors=4, prefetch=0,
             page_rows=PAGE_ROWS, pool=None):
    sim = Simulator(processors=processors)
    memory = MemoryBroker(work_mem) if work_mem else None
    if pool is None:
        pool = BufferPool(24)
    engine = Engine(catalog, sim, costs=COSTS, page_rows=page_rows,
                    buffer_pool=pool, memory=memory,
                    spill_prefetch_depth=prefetch)
    handle = engine.execute(plan, f"sort@{work_mem}")
    sim.run()
    return handle.rows, sim.now, engine


def _run(*args, **kwargs):
    """``(rows, makespan, metrics snapshot)`` of one hand-driven run."""
    rows, now, engine = _execute(*args, **kwargs)
    return rows, now, MetricsRegistry.for_engine(engine).snapshot()


def _sort_notes(*args, **kwargs):
    """``(rows, the big_sort grant's notes)`` of one hand-driven run."""
    rows, _, engine = _execute(*args, **kwargs)
    return rows, grant_notes(engine.memory.grants(), "big_sort")


class TestExternalSort:
    @pytest.fixture(scope="class")
    def catalog(self):
        return _catalog()

    @pytest.fixture(scope="class")
    def baseline(self, catalog):
        return _run(catalog, _sort_plan(catalog))[0]

    def test_identical_at_every_budget(self, catalog, baseline):
        for work_mem in (64, 16, 5, 2, 1):
            rows, _, _ = _run(catalog, _sort_plan(catalog), work_mem)
            assert rows == baseline, f"order drifted at work_mem={work_mem}"

    def test_mixed_directions_with_strings(self, catalog):
        """Descending STR keys go through the _Descending wrapper."""
        keys = [("s", False), ("g", True), ("k", True)]
        reference = _run(catalog, _sort_plan(catalog, keys))[0]
        for work_mem in (8, 2):
            rows, _, _ = _run(catalog, _sort_plan(catalog, keys), work_mem)
            assert rows == reference

    def test_tie_order_is_stable(self, catalog, baseline):
        """Rows with equal keys keep input order across runs."""
        # Key (g,) alone leaves heavy ties; the unique k column of the
        # input exposes any reordering among them.
        keys = [("g", True)]
        reference = _run(catalog, _sort_plan(catalog, keys))[0]
        rows, _, _ = _run(catalog, _sort_plan(catalog, keys), work_mem=2)
        assert rows == reference

    def test_spill_grows_as_budget_shrinks(self, catalog):
        spills = []
        for work_mem in (64, 16, 5, 2):
            _, _, metrics = _run(catalog, _sort_plan(catalog), work_mem)
            spills.append(metrics["spill.pages_written"])
        assert spills == sorted(spills)
        assert spills[-1] > 0

    def test_run_and_pass_arithmetic_matches_grant(self, catalog):
        # Replacement selection caps the run count at ceil(n / budget)
        # (the reverse-ordered worst case) and usually does better; the
        # merge-pass arithmetic must match whatever count it produced.
        n_rows = 3000
        for work_mem in (16, 5, 2, 1):
            _, notes = _sort_notes(catalog, _sort_plan(catalog), work_mem)
            budget_rows = work_mem * PAGE_ROWS
            max_runs = -(-n_rows // budget_rows)
            assert 1 <= notes["sort_runs"] <= max_runs
            assert notes["merge_passes"] == plan_merge_passes(
                notes["sort_runs"], max(2, work_mem - 1)
            )

    def test_second_run_of_a_plan_reports_its_own_notes(self, catalog):
        """``grant_notes`` used to return the *first* grant an owner
        ever took: the second run of one plan in one session — here
        with the budget a competing grant held back from the first —
        reported the first run's runs and passes."""
        config = RuntimeConfig(
            work_mem=16, pool_pages=256, page_rows=PAGE_ROWS, processors=4, cost_model=COSTS
        )
        session = Database.open(catalog, config)
        hog = session.memory.grant("hog", 14)
        squeezed = session.run(_sort_plan(catalog))
        hog.close()
        roomy = session.run(_sort_plan(catalog))
        assert roomy.rows == squeezed.rows
        first, second = squeezed.grant_notes("big_sort"), roomy.grant_notes("big_sort")
        assert first["sort_runs"] > second["sort_runs"] >= 1
        assert first["merge_passes"] > second["merge_passes"]

    def test_newest_grant_answers_over_a_whole_history(self, catalog):
        """A hand-driven engine's broker forgets nothing; the notes are
        still those of the owner's newest grant."""
        sim = Simulator(processors=4)
        memory = MemoryBroker(16)
        engine = Engine(
            catalog,
            sim,
            costs=COSTS,
            page_rows=PAGE_ROWS,
            buffer_pool=BufferPool(24),
            memory=memory,
        )
        hog = memory.grant("hog", 14)
        engine.execute(_sort_plan(catalog), "first")
        sim.run()
        squeezed = grant_notes(memory.grants(), "big_sort")
        hog.close()
        engine.execute(_sort_plan(catalog), "second")
        sim.run()
        assert [grant.owner for grant in memory.grants()].count("big_sort") == 2
        assert grant_notes(memory.grants(), "big_sort")["sort_runs"] < squeezed["sort_runs"]

    def test_replacement_selection_lengthens_runs(self):
        """Run counts: sorted input → 1; random ≈ n/(2·budget);
        reverse-sorted → the ceil(n/budget) worst case."""
        n, work_mem = 1024, 4
        budget_rows = work_mem * PAGE_ROWS
        worst_case = -(-n // budget_rows)
        runs = {}
        inputs = {
            "sorted": [(i,) for i in range(n)],
            "shuffled": [((i * 389) % n,) for i in range(n)],
            "reversed": [(n - i,) for i in range(n)],
        }
        for label, data in inputs.items():
            catalog = Catalog()
            schema = Schema([("k", DataType.INT)])
            catalog.create("t", schema).insert_many(data)
            plan = sort(
                scan(catalog, "t", columns=["k"], op_id="s"),
                [("k", True)],
                op_id="big_sort",
            )
            rows, notes = _sort_notes(catalog, plan, work_mem)
            assert rows == sorted(data)
            runs[label] = notes["sort_runs"]
        assert runs["sorted"] == 1
        assert 1 < runs["shuffled"] < worst_case
        assert runs["reversed"] == worst_case

    def test_makespan_degrades_but_never_fails(self, catalog):
        _, unbounded, _ = _run(catalog, _sort_plan(catalog))
        _, starved, metrics = _run(catalog, _sort_plan(catalog), work_mem=1)
        assert starved > unbounded
        assert metrics["memory.overcommits"] >= 1  # merge floor, recorded

    def test_prefetch_preserves_answers_and_cuts_stall(self, catalog, baseline):
        rows_sync, sync, metrics_sync = _run(
            catalog, _sort_plan(catalog), work_mem=4
        )
        rows_pf, prefetched, metrics_pf = _run(
            catalog, _sort_plan(catalog), work_mem=4, prefetch=2
        )
        assert rows_sync == rows_pf == baseline
        assert metrics_pf["spill.read_stall"] < metrics_sync["spill.read_stall"]
        assert metrics_pf["spill.read_overlapped"] > 0
        assert prefetched < sync


class TestOrderSensitiveConsumers:
    @pytest.fixture(scope="class")
    def catalog(self):
        return _catalog(rows=1500)

    def test_limit_sees_identical_top_n(self, catalog):
        reference = _run(catalog, _sort_plan(catalog, top_n=25))[0]
        for work_mem in (8, 2):
            rows, _, _ = _run(catalog, _sort_plan(catalog, top_n=25), work_mem)
            assert rows == reference

    def test_merge_join_accepts_external_sort_output(self, catalog):
        left = project(
            sort(
                scan(catalog, "t", columns=["g", "k"], op_id="sl"),
                [("k", True)],
                op_id="sort_l",
            ),
            [("lk", col("k"), DataType.INT), ("lg", col("g"), DataType.INT)],
            op_id="pl",
        )
        right = project(
            sort(
                scan(catalog, "t", columns=["g", "k"], op_id="sr"),
                [("k", True)],
                op_id="sort_r",
            ),
            [("rk", col("k"), DataType.INT), ("rg", col("g"), DataType.INT)],
            op_id="pr",
        )
        plan = merge_join(left, right, "lk", "rk", op_id="mj")
        expected = execute_reference(plan, catalog)
        rows, _, _ = _run(catalog, plan, work_mem=4)
        assert sorted(rows) == sorted(expected)


class TestSortKernel:
    schema = Schema(
        [("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT)]
    )

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-50, max_value=50),
            ),
            max_size=200,
        ),
        directions=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    @settings(max_examples=120, deadline=None)
    def test_sort_rows_equals_chained_stable_sorts(self, rows, directions):
        """The grouped itemgetter path == one stable sort per key."""
        keys = list(zip(("a", "b", "c"), directions))
        expected = list(rows)
        for name, ascending in reversed(keys):
            index = self.schema.index_of(name)
            expected.sort(key=lambda r: r[index], reverse=not ascending)
        assert sort_rows(rows, self.schema, keys) == expected

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-50, max_value=50),
            ),
            max_size=200,
        ),
        directions=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    @settings(max_examples=120, deadline=None)
    def test_merge_key_equals_sort_rows(self, rows, directions):
        """sorted() by the batch-built keys is exactly the stable
        multi-key sort, which is what makes the merge reproduce it."""
        keys = list(zip(("a", "b", "c"), directions))
        columns = RowBatch.from_rows(rows, 3).columns
        built = list(batch_key_builder(self.schema, keys)(columns))
        assert [
            rows[i] for i in sorted(range(len(rows)), key=built.__getitem__)
        ] == sort_rows(rows, self.schema, keys)

    @given(
        inputs=st.lists(
            st.tuples(
                st.lists(st.integers(0, 12), max_size=40),
                st.sampled_from([1, 2, 3, 5]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_span_merge_fetches_where_the_heap_merge_does(self, inputs):
        """The page-at-a-time kernel against the row-at-a-time heap
        merge it replaced: same output order, and every fetch falls
        between the same two output rows — which is what keeps the
        simulated event sequence unchanged."""
        # Records are unique (value, uid) pairs: a total order, as the
        # sort's (key, seq, row) and the gather's (key, port, n, row).
        uid = iter(range(10**6))
        paged = []
        for values, page_rows in inputs:
            records = sorted((value, next(uid)) for value in values)
            paged.append(
                [records[i : i + page_rows] for i in range(0, len(records), page_rows)]
            )

        def heap_merge():
            log = []
            sources = [iter(pages) for pages in paged]
            buffers = [[] for _ in paged]

            def fetch(index):
                page = next(sources[index], None)
                if page is not None:
                    log.append(("fetch", index))
                    buffers[index] = page[::-1]

            heap = []
            for index in range(len(paged)):
                fetch(index)
                if buffers[index]:
                    heapq.heappush(heap, (buffers[index].pop(), index))
            while heap:
                record, index = heapq.heappop(heap)
                log.append(("row", record))
                if not buffers[index]:
                    fetch(index)
                if buffers[index]:
                    heapq.heappush(heap, (buffers[index].pop(), index))
            return log

        def span_merge():
            sources = [iter(pages) for pages in paged]
            buffers = [()] * len(paged)

            def refill(index):
                page = next(sources[index], None)
                if page is not None:
                    yield ("fetch", index)
                    buffers[index] = page

            def sink(span):
                for record in span:
                    yield ("row", record)

            return list(merge_spans(buffers, refill, sink))

        assert span_merge() == heap_merge()

    def test_plan_merge_passes_arithmetic(self):
        assert plan_merge_passes(0, 2) == 0
        assert plan_merge_passes(1, 2) == 1
        assert plan_merge_passes(2, 2) == 1
        assert plan_merge_passes(3, 2) == 2
        assert plan_merge_passes(8, 3) == 2
        assert plan_merge_passes(47, 2) == 6

    @given(
        runs=st.integers(min_value=1, max_value=500),
        fan_in=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_merge_passes_terminates_at_one_final(self, runs, fan_in):
        passes = plan_merge_passes(runs, fan_in)
        merged = runs
        for _ in range(passes - 1):
            merged = -(-merged // fan_in)
        assert merged <= fan_in


class TestExternalSortProperty:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=-20, max_value=20),
            ),
            min_size=1,
            max_size=300,
        ),
        work_mem=st.integers(min_value=1, max_value=6),
        ascending=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_engine_output_equals_python_sorted(self, rows, work_mem, ascending):
        """End to end: external sort == sorted() at random budgets."""
        catalog = Catalog()
        schema = Schema([("a", DataType.INT), ("b", DataType.INT)])
        catalog.create("t", schema).insert_many(rows)
        plan = sort(
            scan(catalog, "t", columns=["a", "b"], op_id="s"),
            [("a", ascending), ("b", True)],
            op_id="big_sort",
        )
        sim = Simulator(processors=2)
        engine = Engine(catalog, sim, costs=COSTS, page_rows=4,
                        buffer_pool=BufferPool(8),
                        memory=MemoryBroker(work_mem))
        handle = engine.execute(plan, "q")
        sim.run()
        expected = sorted(
            rows, key=lambda r: ((r[0] if ascending else -r[0]), r[1])
        )
        assert handle.rows == expected


class _TrackingPool(BufferPool):
    """A pool that remembers every spill file it opened."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.files = []

    def spill_file(self, page_rows, owner=""):
        spill = super().spill_file(page_rows, owner)
        self.files.append(spill)
        return spill


MIXED_SCHEMA = Schema(
    [
        ("i", DataType.INT),
        ("f", DataType.FLOAT),
        ("s", DataType.STR),
        ("d", DataType.DATE),
    ]
)

# Small domains, so every key column ties heavily; the awkward values
# are the ones a negated key could get wrong: signed zeros, infinities,
# integers a float cannot hold.
MIXED_ROWS = st.lists(
    st.tuples(
        st.integers(-2, 2) | st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1]),
        st.sampled_from([-0.0, 0.0, 1.5, -1.5, float("inf"), float("-inf")])
        | st.floats(-4, 4, allow_nan=False, width=16),
        st.sampled_from(["", "a", "ab", "b", "B"]),
        st.integers(730000, 730003),
    ),
    max_size=150,
)

MIXED_KEYS = st.lists(
    st.tuples(st.sampled_from(MIXED_SCHEMA.names()), st.booleans()),
    min_size=1,
    max_size=4,
    unique_by=lambda key: key[0],
)


def _governed_sort(rows, schema, keys, work_mem, page_rows=4, prefetch=0):
    """Rows of an engine sort over ``rows`` (ungoverned when ``work_mem``
    is ``None``), and the pool it spilled to."""
    catalog = Catalog()
    catalog.create("t", schema).insert_many(rows)
    plan = sort(
        scan(catalog, "t", columns=list(schema.names()), op_id="s"),
        keys,
        op_id="big_sort",
    )
    pool = _TrackingPool(8)
    got, _, _ = _run(catalog, plan, work_mem, processors=2, prefetch=prefetch,
                     page_rows=page_rows, pool=pool)
    return got, pool


class TestGovernedSortEqualsSortRows:
    @given(
        rows=MIXED_ROWS,
        keys=MIXED_KEYS,
        work_mem=st.sampled_from([None, 1, 2, 3, 7, 64]),
        page_rows=st.sampled_from([1, 4, 16]),
        prefetch=st.sampled_from([0, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_keys_any_budget(self, rows, keys, work_mem, page_rows, prefetch):
        """Order and tie order match the in-memory sort over every
        column type and direction mix, at every budget and ungoverned,
        and no run file outlives it."""
        got, pool = _governed_sort(
            rows, MIXED_SCHEMA, keys, work_mem, page_rows, prefetch
        )
        # repr-compare: -0.0 and 0.0 tie, so == alone would not see
        # them swapped.
        assert repr(got) == repr(sort_rows(rows, MIXED_SCHEMA, keys))
        assert all(spill.dropped for spill in pool.files)
        # An input larger than the grant must have opened run files; an
        # ungoverned grant never overflows.
        if work_mem is None:
            assert not pool.files
        else:
            assert pool.files or len(rows) <= work_mem * page_rows


class TestNullKeys:
    """A descending numeric key is negated; NULL has to pass through."""

    schema = Schema([("a", DataType.INT), ("k", DataType.INT)])
    keys = [("a", False)]

    @pytest.mark.parametrize("work_mem", [None, 1, 64])
    def test_lone_null_row_sorts(self, work_mem):
        rows = [(None, 0)]
        got, _ = _governed_sort(rows, self.schema, self.keys, work_mem)
        assert got == sort_rows(rows, self.schema, self.keys) == rows

    @pytest.mark.parametrize("work_mem", [None, 1, 64])
    def test_all_null_key_keeps_arrival_order(self, work_mem):
        rows = [(None, k) for k in range(40)]
        got, pool = _governed_sort(rows, self.schema, self.keys, work_mem)
        assert got == sort_rows(rows, self.schema, self.keys) == rows
        assert all(spill.dropped for spill in pool.files)

    @pytest.mark.parametrize("work_mem", [None, 1, 64])
    def test_mixed_null_raises_what_sort_rows_raises(self, work_mem):
        rows = [(k if k % 3 else None, k) for k in range(40)]
        with pytest.raises(TypeError):
            sort_rows(rows, self.schema, self.keys)
        with pytest.raises(SimulationError) as failure:
            _governed_sort(rows, self.schema, self.keys, work_mem)
        assert isinstance(failure.value.__cause__, TypeError)

    @pytest.mark.parametrize("work_mem", [None, 1, 64])
    def test_null_beside_a_value_in_a_key_a_more_significant_one_decides(self, work_mem):
        """The oracle used to sort least significant key first and raise
        on ``b``; the engine compares ``a`` first and never looks."""
        rows = [(1, None), (2, 5)]
        keys = [("a", True), ("k", False)]
        got, _ = _governed_sort(rows, self.schema, keys, work_mem)
        assert got == sort_rows(rows, self.schema, keys) == rows

    @pytest.mark.parametrize("work_mem", [None, 1, 64])
    def test_descending_string_above_a_key_with_nulls(self, work_mem):
        schema = Schema([("s", DataType.STR), ("k", DataType.INT)])
        rows = [("b", None), ("a", 3), ("c", 1), ("b", None), ("a", 2), ("d", None)]
        keys = [("s", False), ("k", True)]
        got, _ = _governed_sort(rows, schema, keys, work_mem)
        expected = [("d", None), ("c", 1), ("b", None), ("b", None), ("a", 2), ("a", 3)]
        assert got == sort_rows(rows, schema, keys) == expected
        with pytest.raises(TypeError):  # NULL against 3 decides "a"'s rows
            sort_rows(rows + [("a", None)], schema, keys)

    @pytest.mark.parametrize("work_mem", [None, 1, 64])
    def test_descending_string_under_a_numeric_dtype(self, work_mem):
        """max() of a STR column is declared FLOAT: the key builder
        must fall back to the wrapper, not fail negating a string."""
        catalog = _catalog(rows=400)
        plan = sort(
            aggregate(
                scan(catalog, "t", columns=["g", "s"], op_id="s"),
                ["g"],
                [AggSpec("max", "top", col("s"))],
                op_id="agg",
            ),
            [("top", False), ("g", True)],
            op_id="big_sort",
        )
        rows, _, _ = _run(catalog, plan, work_mem)
        assert rows == execute_reference(plan, catalog)
