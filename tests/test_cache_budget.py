"""A budget cannot change an answer or a clock.

The host-side caches (decoded pages, compiled expressions, experiment
catalogs) sit under one weighted LRU. A hit and a miss charge the same
simulated cost, and eviction only drops the cache's reference, so at
any budget the rows, the session clock and the stage report are what
they are at the default — Jahangiri et al.'s "identical answers at
every budget", applied to the host's memory.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Query, RuntimeConfig
from repro.engine import execute_reference, stage_rows
from repro.engine.expressions import BATCH_CACHE, col, compile_batch, lt
from repro.engine.stats import retire_finished
from repro.sim import Compute, Simulator, Sleep
from repro.storage import Catalog, DataType, Schema
from repro.storage.lru import WeightedLRU
from repro.storage.table import PAGE_CACHE, Table
from repro.tpch.generator import generate
from repro.tpch.queries import build

# ----------------------------------------------------------------------
# the helper
# ----------------------------------------------------------------------


def test_lru_evicts_least_recently_used_by_weight():
    dropped = []
    lru = WeightedLRU(10, on_evict=lambda key, value: dropped.append((key, value)))
    lru.put("a", 1, weight=4)
    lru.put("b", 2, weight=4)
    assert lru.get("a") == 1  # a is now the newest
    lru.put("c", 3, weight=4)
    assert dropped == [("b", 2)] and "b" not in lru
    assert (len(lru), lru.weight, lru.evictions) == (2, 8, 1)
    lru.put("a", 10, weight=2)  # replacing re-weighs
    assert (lru.get("a"), lru.weight) == (10, 6)
    assert lru.pop("c") == 3 and lru.pop("c") is None
    assert (lru.weight, lru.evictions, dropped) == (2, 1, [("b", 2)])


def test_lru_never_holds_more_than_its_budget():
    lru = WeightedLRU(10)
    lru.put("small", 1, weight=3)
    lru.put("huge", 2, weight=11)  # heavier than the whole budget
    assert len(lru) == 0 and lru.weight == 0 and lru.evictions == 2
    assert lru.get("huge") is None


def test_hot_expression_survives_an_adhoc_stream(monkeypatch):
    """The old bound cleared the whole cache when it filled; now the
    entry a templated query keeps asking for stays."""
    monkeypatch.setattr(BATCH_CACHE, "budget", 8)
    schema = Schema([("k", DataType.INT)])
    hot = compile_batch(lt(col("k"), -1), schema)
    evicted = BATCH_CACHE.evictions
    for constant in range(64):
        compile_batch(lt(col("k"), constant), schema)
        assert compile_batch(lt(col("k"), -1), schema) is hot
        assert len(BATCH_CACHE) <= 8
    assert BATCH_CACHE.evictions > evicted


# ----------------------------------------------------------------------
# decoded pages
# ----------------------------------------------------------------------

ROWS = 640


def _catalog():
    catalog = Catalog()
    table = catalog.create("t", Schema([("k", DataType.INT), ("v", DataType.INT)]))
    table.insert_many([(i, i * 3 % 11) for i in range(ROWS)])
    return catalog


def _convoy(catalog):
    """Two scans of one signature with another signature's scan between
    them, staggered so each starts while the one before is mid-table."""
    session = Database.open(catalog, RuntimeConfig.preset("laptop"))
    wide = session.table("t", columns=["k", "v"]).where(lt(col("v"), 9)).build()
    other = session.table("t", columns=["k"]).where(lt(col("k"), 500)).build()
    queries = (wide, other, wide)
    for query, delay in zip(queries, (0.0, 300.0, 600.0)):
        session.submit(query, share=False, delay=delay)
    results = session.run_all()
    for earlier, later in zip(results, results[1:]):
        assert later.submitted_at < earlier.finished_at
    return session, queries, results


def test_eviction_under_a_running_scan_changes_no_row_and_no_clock(monkeypatch):
    default, _, expected = _convoy(_catalog())

    catalog = _catalog()
    evicted = PAGE_CACHE.evictions
    monkeypatch.setattr(PAGE_CACHE, "budget", ROWS * 2)  # one signature's worth
    session, queries, results = _convoy(catalog)
    # Every attach pushed out a list some running scan was reading.
    assert PAGE_CACHE.evictions - evicted >= 3
    assert PAGE_CACHE.weight <= ROWS * 2
    for query, got, want in zip(queries, results, expected):
        assert sorted(got.rows) == sorted(execute_reference(query.plan, catalog))
        assert got.rows == want.rows
        assert (got.submitted_at, got.finished_at) == (want.submitted_at, want.finished_at)
    assert session.now == default.now


def test_insert_still_invalidates():
    catalog = _catalog()
    table = catalog.table("t")
    session = Database.open(catalog, "cmp32")
    query = session.table("t", columns=["k"]).where(lt(col("k"), 5))
    assert len(session.run(query).rows) == 5
    keys = [(table._serial, key) for key in table._page_cache]
    assert keys and all(key in PAGE_CACHE for key in keys)
    weight = PAGE_CACHE.weight
    table.insert((-1, 0))
    assert not table._page_cache
    assert not any(key in PAGE_CACHE for key in keys)
    assert PAGE_CACHE.weight == weight - 2 * ROWS  # the fused list and the plain one
    assert len(session.run(query).rows) == 6


def test_a_dead_table_leaves_the_budget_at_once():
    """Its upper-bound weights used to sit in the budget until they aged
    out, pushing live signatures out early (``fig6.run`` builds a fresh
    catalog per call) and over-reading ``cache.pages.cells``."""
    gc.collect()
    before = (len(PAGE_CACHE), PAGE_CACHE.weight)
    table = Table("t", Schema([("k", DataType.INT), ("v", DataType.INT)]))
    table.insert_many([(i, i) for i in range(1000)])
    table.column_slices(0)
    table.fused_cache(("fused", "sig", 64), table.page_count(64), 2)
    assert (len(PAGE_CACHE), PAGE_CACHE.weight) == (before[0] + 2, before[1] + 4000)
    del table
    gc.collect()
    assert (len(PAGE_CACHE), PAGE_CACHE.weight) == before


def test_templated_session_never_decodes_after_its_warm_up(monkeypatch):
    """At the default budget the memo-hot working set stays resident:
    the benchmark's ``storage.table.fused_misses`` stays 0."""
    catalog = generate(0.0005, 11)
    session = Database.open(catalog, "laptop")
    batches = [(build(name, catalog), n) for name, n in (("q6", 4), ("q4", 4), ("q1", 2))]

    def round_():
        for tpch, clients in batches:
            for _ in range(clients):
                session.submit(Query(plan=tpch.plan, pivot_op_id=tpch.pivot, name=tpch.name))
            session.run_all()

    round_()
    calls = [0]
    column_slices = Table.column_slices

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return column_slices(self, *args, **kwargs)

    monkeypatch.setattr(Table, "column_slices", counted)
    round_()
    round_()
    assert calls[0] == 0


# ----------------------------------------------------------------------
# the resumable stage fold
# ----------------------------------------------------------------------


def _work(steps):
    for cost, io_share, nap in steps:
        yield Compute(cost, io=cost * io_share)
        if nap:
            yield Sleep(nap)


_STEPS = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=40.0),
        st.sampled_from([0.0, 0.25, 1.0]),
        st.sampled_from([0.0, 0.0, 3.7]),
    ),
    min_size=1,
    max_size=4,
)
_TASKS = st.lists(
    st.tuples(
        st.sampled_from(["scan", "agg", "sort", "sink"]),
        st.floats(min_value=0.0, max_value=30.0),  # gap before the spawn
        _STEPS,
    ),
    min_size=1,
    max_size=10,
)


@given(
    tasks=_TASKS,
    straggler=st.floats(min_value=20.0, max_value=600.0),
    stops=st.lists(st.floats(min_value=1.0, max_value=400.0), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_incremental_fold_equals_a_fold_from_scratch(tasks, straggler, stops):
    """Stage rows read at arbitrary instants — tasks spawned and finished
    in any interleaving, with unfinished tasks (the spawner, a long
    sort) in the middle of the list while later ones finish — equal a
    from-scratch fold of the same ledger, every float compared with
    ``==``."""
    sim = Simulator(processors=2)

    def spawner():
        sim.spawn(_work([(0.3, 0.0, 0.0)]), name="q/scan")
        sim.spawn(_work([(straggler, 0.5, 0.0)]), name="straggler/sort")
        for index, (op_id, gap, steps) in enumerate(tasks):
            if gap:
                yield Sleep(gap)
            sim.spawn(_work(steps), name=f"q{index}/{op_id}")

    def check():
        assert stage_rows(sim) == stage_rows(list(sim.tasks))
        folded = sim.stage_fold.folded
        assert not any(task.alive for task in sim.tasks[:folded])
        assert folded == len(sim.tasks) or sim.tasks[folded].alive

    sim.spawn(spawner(), name="spawner")
    for until in sorted(stops):
        sim.run(until=until)
        check()
    sim.run()
    check()
    assert sim.stage_fold.folded == len(sim.tasks)


@given(
    tasks=_TASKS,
    straggler=st.floats(min_value=20.0, max_value=600.0),
    stops=st.lists(st.floats(min_value=1.0, max_value=400.0), max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_retiring_the_finished_prefix_keeps_every_stage_row(tasks, straggler, stops):
    """Retiring at arbitrary instants drops exactly the finished prefix
    of ``sim.tasks``, and the stage rows read after it equal a fold from
    scratch over every task ever spawned, every float compared with
    ``==``."""
    sim = Simulator(processors=2)
    spawned = []

    def spawner():
        spawned.append(sim.spawn(_work([(0.3, 0.0, 0.0)]), name="q/scan"))
        spawned.append(sim.spawn(_work([(straggler, 0.5, 0.0)]), name="straggler/sort"))
        for index, (op_id, gap, steps) in enumerate(tasks):
            if gap:
                yield Sleep(gap)
            spawned.append(sim.spawn(_work(steps), name=f"q{index}/{op_id}"))

    def retire_and_check():
        before = list(sim.tasks)
        retire_finished(sim)
        kept = len(sim.tasks)
        assert sim.tasks == before[len(before) - kept :]
        assert not sim.tasks or sim.tasks[0].alive
        assert not any(task.alive for task in before[: len(before) - kept])
        assert stage_rows(sim) == stage_rows(spawned)
        assert sim.spawned == len(spawned) + 1  # the spawner itself

    sim.spawn(spawner(), name="spawner")
    for until in sorted(stops):
        sim.run(until=until)
        retire_and_check()
    sim.run()
    retire_and_check()
    assert sim.tasks == [] and sim.completions == sim.spawned
