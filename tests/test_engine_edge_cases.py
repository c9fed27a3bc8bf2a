"""Edge-case tests for the staged engine: empty inputs, degenerate
plans, extreme page sizes, and queue pressure."""

import pytest

from repro.engine import (
    AggSpec,
    Engine,
    aggregate,
    execute_reference,
    filter_,
    hash_join,
    project,
    scan,
    sort,
)
from repro.engine.expressions import col, gt, lt
from repro.sim import Simulator
from repro.storage import Catalog, DataType, Schema


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.create("empty", Schema([("a", DataType.INT)]))
    items = cat.create("items", Schema([
        ("id", DataType.INT), ("v", DataType.FLOAT),
    ]))
    for i in range(50):
        items.insert((i, float(i)))
    single = cat.create("single", Schema([("x", DataType.INT)]))
    single.insert((7,))
    return cat


def run(catalog, plan, processors=2, **engine_kwargs):
    sim = Simulator(processors=processors)
    engine = Engine(catalog, sim, **engine_kwargs)
    handle = engine.execute(plan, "q")
    sim.run()
    return handle.rows


class TestEmptyInputs:
    def test_scan_empty_table(self, catalog):
        plan = scan(catalog, "empty")
        assert run(catalog, plan) == []

    def test_aggregate_over_empty_input(self, catalog):
        plan = aggregate(scan(catalog, "empty"), ["a"],
                         [AggSpec("count", "n")])
        assert run(catalog, plan) == []

    def test_filter_rejecting_everything(self, catalog):
        plan = filter_(scan(catalog, "items"), gt(col("v"), 1e9))
        assert run(catalog, plan) == []

    def test_sort_empty(self, catalog):
        plan = sort(scan(catalog, "empty"), [("a", True)])
        assert run(catalog, plan) == []

    def test_join_with_empty_build_side(self, catalog):
        plan = hash_join(
            build=scan(catalog, "empty"), probe=scan(catalog, "items"),
            build_key="a", probe_key="id",
        )
        assert run(catalog, plan) == []

    def test_left_join_with_empty_build_side_pads_all(self, catalog):
        plan = hash_join(
            build=scan(catalog, "empty"), probe=scan(catalog, "items"),
            build_key="a", probe_key="id", join_type="left",
        )
        rows = run(catalog, plan)
        assert len(rows) == 50
        assert all(r[2] is None for r in rows)

    def test_shared_group_over_empty_pivot_output(self, catalog):
        pivot = filter_(scan(catalog, "items"), gt(col("v"), 1e9),
                        op_id="pivot")
        plan = aggregate(pivot, [], [AggSpec("count", "n")])
        sim = Simulator(processors=2)
        engine = Engine(catalog, sim)
        group = engine.execute_group([plan] * 3, pivot_op_id="pivot")
        sim.run()
        for handle in group.handles:
            assert handle.rows == []


class TestDegenerateShapes:
    def test_single_row_table(self, catalog):
        plan = project(scan(catalog, "single"),
                       [("y", col("x"), DataType.INT)])
        assert run(catalog, plan) == [(7,)]

    def test_page_rows_one(self, catalog):
        plan = sort(scan(catalog, "items"), [("v", False)])
        rows = run(catalog, plan, page_rows=1)
        assert rows == execute_reference(plan, catalog)

    def test_huge_pages(self, catalog):
        plan = filter_(scan(catalog, "items"), lt(col("id"), 10))
        rows = run(catalog, plan, page_rows=10_000)
        assert rows == execute_reference(plan, catalog)

    def test_queue_capacity_one(self, catalog):
        plan = aggregate(
            filter_(scan(catalog, "items"), lt(col("id"), 40)),
            [], [AggSpec("sum", "s", col("v"))],
        )
        rows = run(catalog, plan, queue_capacity=1)
        assert rows == execute_reference(plan, catalog)
        # The model's finite-buffering assumption: a one-slot queue may
        # serialize the pipeline, ample queues only smooth bursts.
        times = {}
        for capacity in (1, 16, 64):
            sim = Simulator(processors=4)
            engine = Engine(catalog, sim, page_rows=4, queue_capacity=capacity)
            engine.execute(plan, "q")
            sim.run()
            times[capacity] = sim.now
        assert times[1] >= times[64]
        assert times[16] == pytest.approx(times[64], rel=0.1)

    def test_many_more_sharers_than_processors(self, catalog):
        pivot = filter_(scan(catalog, "items"), lt(col("id"), 40),
                        op_id="pivot")
        plan = aggregate(pivot, [], [AggSpec("count", "n")])
        sim = Simulator(processors=1)
        engine = Engine(catalog, sim)
        group = engine.execute_group([plan] * 24, pivot_op_id="pivot")
        sim.run()
        reference = execute_reference(plan, catalog)
        assert all(h.rows == reference for h in group.handles)

    def test_deep_linear_plan(self, catalog):
        node = scan(catalog, "items")
        for i in range(12):
            node = filter_(node, lt(col("id"), 1000 + i), op_id=f"f{i}")
        rows = run(catalog, node)
        assert rows == execute_reference(node, catalog)
