"""The spill-aware hash aggregate degrades gracefully.

Under a :class:`~repro.engine.memory.MemoryBroker` grant the
aggregate partitions its group state and spills mergeable accumulator
states instead of buffering unboundedly; the answer must be identical
to the ungoverned aggregate's at every budget, spill traffic must
grow as the budget shrinks, and NULL/count(*) semantics must survive
the spill path.
"""

import pytest

from repro.engine import (
    AggSpec,
    CostModel,
    Engine,
    MemoryBroker,
    aggregate,
    scan,
)
from repro.engine.expressions import col
from repro.engine.operators.aggregate import Accumulator
from repro.sim.simulator import Simulator
from repro.storage import BufferPool, Catalog, DataType, Schema

COSTS = CostModel(io_page=100.0, spill_page=120.0)
PAGE_ROWS = 16


def _catalog(groups=537, rows=6000, with_nulls=False):
    catalog = Catalog()
    schema = Schema([("g", DataType.INT), ("v", DataType.FLOAT)])
    data = []
    for i in range(rows):
        value = None if with_nulls and i % 7 == 0 else float(i % 91) / 7.0
        data.append((i % groups, value))
    catalog.create("t", schema).insert_many(data)
    return catalog


def _plan(catalog):
    return aggregate(
        scan(catalog, "t", columns=["g", "v"], op_id="s"),
        group_by=("g",),
        aggs=[
            AggSpec("sum", "total", col("v")),
            AggSpec("count", "n"),
            AggSpec("count", "nv", col("v")),
            AggSpec("min", "lo", col("v")),
            AggSpec("max", "hi", col("v")),
            AggSpec("avg", "mean", col("v")),
        ],
        op_id="agg",
    )


def _run(catalog, work_mem=None, processors=4):
    sim = Simulator(processors=processors)
    memory = MemoryBroker(work_mem) if work_mem else None
    engine = Engine(catalog, sim, costs=COSTS, page_rows=PAGE_ROWS,
                    buffer_pool=BufferPool(128), memory=memory)
    handle = engine.execute(_plan(catalog), f"agg@{work_mem}")
    sim.run()
    return handle.rows, sim.now, engine


class TestSpillingAggregate:
    @pytest.fixture(scope="class")
    def baseline(self):
        return _run(_catalog())[0]

    def test_answers_identical_across_budgets(self, baseline):
        for work_mem in (64, 16, 8, 1):
            rows, _, _ = _run(_catalog(), work_mem)
            assert rows == baseline, f"answer drifted at work_mem={work_mem}"

    def test_spill_grows_as_budget_shrinks(self):
        # Budgets >= 8 keep the partition fanout constant, so page
        # packing is comparable and spill growth is monotone.
        spills = []
        for work_mem in (64, 16, 8):
            _, _, engine = _run(_catalog(), work_mem)
            spills.append(engine.pool.stats.spill_pages_written)
        assert spills == sorted(spills)
        assert spills[-1] > spills[0]

    def test_tight_budget_costs_time(self):
        _, ample, _ = _run(_catalog(), 64)
        _, tight, _ = _run(_catalog(), 8)
        assert tight > ample

    def test_ample_budget_never_spills(self):
        _, _, engine = _run(_catalog(), 64)
        assert engine.pool.stats.spill_pages_written == 0
        assert engine.memory.overcommits == 0

    def test_overcommit_recorded_at_recursion_floor(self):
        _, _, engine = _run(_catalog(), 1)
        assert engine.pool.stats.spill_pages_written > 0
        assert engine.memory.overcommits >= 1

    def test_grants_closed(self):
        _, _, engine = _run(_catalog(), 16)
        assert all(grant.closed for grant in engine.memory.grants())

    def test_null_semantics_survive_spilling(self):
        catalog = _catalog(with_nulls=True)
        baseline, _, _ = _run(catalog)
        spilled, _, engine = _run(catalog, 8)
        assert engine.pool.stats.spill_pages_written > 0
        assert spilled == baseline
        # count(*) counts rows, count(v) skips the NULLs.
        by_group = {row[0]: row for row in spilled}
        assert any(row[2] > row[3] for row in by_group.values())

    def test_global_aggregate_single_group(self):
        catalog = _catalog(groups=1)
        baseline, _, _ = _run(catalog)
        spilled, _, _ = _run(catalog, 2)
        assert spilled == baseline
        assert len(spilled) == 1


class TestAccumulatorState:
    @pytest.mark.parametrize("func,values,expected", [
        ("sum", [1.0, 2.0, 3.0, 4.0], 10.0),
        ("count", [1.0, 2.0, 3.0, 4.0], 4),
        ("min", [3.0, 1.0, 4.0, 2.0], 1.0),
        ("max", [3.0, 1.0, 4.0, 2.0], 4.0),
        ("avg", [1.0, 2.0, 3.0, 4.0], 2.5),
    ])
    def test_absorb_equals_direct_update(self, func, values, expected):
        """Splitting a stream across accumulators and merging their
        states gives the same result as one accumulator."""
        left, right = Accumulator(func), Accumulator(func)
        for i, value in enumerate(values):
            (left if i % 2 == 0 else right).update(value)
        left.absorb(right.state())
        assert left.result() == expected

    def test_absorb_empty_state_is_identity(self):
        acc = Accumulator("min")
        acc.update(5.0)
        acc.absorb(Accumulator("min").state())
        assert acc.result() == 5.0

    def test_absorb_into_empty(self):
        acc = Accumulator("max")
        other = Accumulator("max")
        other.update(7.0)
        acc.absorb(other.state())
        assert acc.result() == 7.0
