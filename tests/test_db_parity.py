"""Facade/engine parity: sugar must not change a single bit.

For every preset, a query built and run through the facade must
produce *bit-identical rows* and an *identical simulated completion
time* to the same plan hand-wired onto a raw ``Engine`` with manually
constructed components — the facade is wiring, not behavior.
"""

import pytest

from repro.db import Database, RuntimeConfig
from repro.engine import Engine, MemoryBroker
from repro.engine.expressions import col, lt
from repro.engine.plan import AggSpec, aggregate, scan, sort
from repro.sim import Simulator
from repro.storage import BufferPool, Catalog, DataType, ScanShareManager, Schema

PRESET_NAMES = ("laptop", "cmp32", "unbounded")


@pytest.fixture(scope="module")
def catalog():
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    rows = []
    state = 77
    for i in range(3000):
        state = (state * 48271) % 2147483647
        rows.append((i, state / 2147483647.0))
    catalog.create("t", schema).insert_many(rows)
    return catalog


def hand_wired(catalog, config):
    """Assemble the components exactly as RuntimeConfig describes."""
    sim = Simulator(processors=config.processors)
    pool = (
        BufferPool(config.pool_pages, config.pool_policy)
        if config.pool_pages is not None
        else None
    )
    memory = (
        MemoryBroker(config.work_mem) if config.work_mem is not None else None
    )
    scans = (
        ScanShareManager(pool, prefetch_depth=config.prefetch_depth)
        if config.prefetch_depth is not None
        else None
    )
    engine = Engine(
        catalog,
        sim,
        costs=config.cost_model,
        page_rows=config.page_rows,
        queue_capacity=config.queue_capacity,
        buffer_pool=pool,
        memory=memory,
        scan_manager=scans,
        spill_prefetch_depth=config.spill_prefetch_depth,
    )
    return sim, engine


def sort_plan(catalog):
    """Scan + filter (fused) + full sort: exercises pool, grants and
    spill at the laptop preset's 32-page budget."""
    return sort(
        scan(catalog, "t", columns=["k", "v"],
             predicate=lt(col("v"), 0.8)),
        [("v", True), ("k", False)],
    )


def agg_plan(catalog):
    return aggregate(
        scan(catalog, "t", columns=["k", "v"]),
        group_by=(),
        aggs=[AggSpec("sum", "total", col("v")), AggSpec("count", "n")],
    )


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("make_plan", [sort_plan, agg_plan],
                         ids=["sort", "agg"])
def test_solo_parity(catalog, preset, make_plan):
    config = RuntimeConfig.preset(preset)
    plan = make_plan(catalog)

    session = Database.open(catalog, config)
    result = session.run(plan, label="q")

    sim, engine = hand_wired(catalog, config)
    handle = engine.execute(plan, "q")
    sim.run()

    assert result.rows == handle.rows
    assert result.makespan == sim.now
    assert result.finished_at == handle.finished_at


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_concurrent_solo_parity(catalog, preset):
    """m facade submissions forced solo == m raw ``execute`` calls: the
    router charges no simulated work of its own."""
    config = RuntimeConfig.preset(preset)
    plan = agg_plan(catalog)
    m = 8

    session = Database.open(catalog, config)
    for i in range(m):
        session.submit(plan, label=f"q{i}", share=False)
    results = session.run_all()

    sim, engine = hand_wired(catalog, config)
    handles = [engine.execute(plan, f"q{i}") for i in range(m)]
    sim.run()

    assert [r.rows for r in results] == [h.rows for h in handles]
    assert [r.finished_at for r in results] == [h.finished_at for h in handles]
    assert session.now == sim.now


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_shared_group_parity(catalog, preset):
    """m facade submissions forced into one group == execute_group."""
    config = RuntimeConfig.preset(preset)
    m = 4

    session = Database.open(catalog, config)
    query = (
        session.table("t", columns=["k", "v"])
        .where(lt(col("v"), 0.5))
        .agg(AggSpec("sum", "total", col("v")), AggSpec("count", "n"))
        .build()
    )
    for i in range(m):
        session.submit(query, label=f"q{i}", share=True)
    results = session.run_all()

    sim, engine = hand_wired(catalog, config)
    group = engine.execute_group(
        [query.plan] * m,
        pivot_op_id=query.pivot_op_id,
        labels=[f"q{i}" for i in range(m)],
    )
    sim.run()

    assert all(r.shared and r.group_size == m for r in results)
    assert [r.rows for r in results] == [h.rows for h in group.handles]
    assert results[0].makespan == sim.now


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_builder_plan_matches_hand_built(catalog, preset):
    """The fluent spelling lowers to the identical plan IR."""
    session = Database.open(catalog, RuntimeConfig.preset(preset))
    built = (
        session.table("t", columns=["k", "v"])
        .where(lt(col("v"), 0.8))
        .order_by("v", ("k", False))
        .plan()
    )
    by_hand = sort_plan(catalog)
    assert built.signature == by_hand.signature
    assert built.op_id == by_hand.op_id
    assert built.schema.names() == by_hand.schema.names()


def test_resource_counters_match(catalog):
    """Same wiring, same storage traffic — counters agree too."""
    config = RuntimeConfig.preset("laptop")
    plan = sort_plan(catalog)

    session = Database.open(catalog, config)
    result = session.run(plan)

    sim, engine = hand_wired(catalog, config)
    engine.execute(plan, "q")
    sim.run()

    facade = result.metrics
    raw_pool = engine.pool.stats
    assert facade["buffer.misses"] == raw_pool.misses
    assert facade["buffer.hits"] == raw_pool.hits
    assert facade["spill.pages_written"] == raw_pool.spill_pages_written
    assert facade["memory.high_water"] == engine.memory.high_water
