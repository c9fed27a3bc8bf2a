"""The spilling hybrid hash join under memory governance.

Correctness: whatever the budget, the staged answer must equal the
reference executor's for every join type — partitioning, spilling and
recursion may reorder rows but never change the multiset.

Degradation: shrinking ``work_mem`` only ever adds spill traffic
(monotone) and never fails a query.
"""

import pytest

from repro.engine import (
    Engine,
    IO_AWARE_COST_MODEL,
    MemoryBroker,
    execute_reference,
    hash_join,
    scan,
)
from repro.sim import Simulator
from repro.storage import BufferPool, Catalog, DataType, Schema

WORK_MEMS = (64, 8, 3, 1)


@pytest.fixture
def catalog():
    cat = Catalog()
    build = cat.create("build_side", Schema([
        ("bk", DataType.INT), ("bv", DataType.INT),
    ]))
    probe = cat.create("probe_side", Schema([
        ("pk", DataType.INT), ("pv", DataType.INT),
    ]))
    # Skewed keys: key 0 is heavy (stresses partition imbalance and
    # the recursion floor), plus keys without matches on either side.
    rows = []
    for i in range(900):
        key = 0 if i % 3 == 0 else i % 120
        rows.append((key, i))
    build.insert_many(rows)
    probe.insert_many([((i * 7) % 150, i) for i in range(1100)])
    return cat


def _join_plan(catalog, join_type):
    return hash_join(
        scan(catalog, "build_side"),
        scan(catalog, "probe_side"),
        build_key="bk",
        probe_key="pk",
        join_type=join_type,
        op_id=f"join_{join_type}",
    )


def _run(catalog, plan, work_mem, processors=4, pool_pages=32):
    sim = Simulator(processors=processors)
    engine = Engine(
        catalog, sim, costs=IO_AWARE_COST_MODEL,
        buffer_pool=BufferPool(pool_pages), memory=MemoryBroker(work_mem),
    )
    handle = engine.execute(plan, f"spill@{work_mem}")
    sim.run()
    return handle, engine, sim


class TestSpillingJoinCorrectness:
    @pytest.mark.parametrize("join_type", ["inner", "left", "semi", "anti"])
    @pytest.mark.parametrize("work_mem", WORK_MEMS)
    def test_matches_reference(self, catalog, join_type, work_mem):
        plan = _join_plan(catalog, join_type)
        expected = sorted(execute_reference(plan, catalog))
        handle, _, _ = _run(catalog, plan, work_mem)
        assert sorted(handle.rows) == expected

    def test_empty_probe(self, catalog):
        catalog.create("empty_probe", Schema([
            ("pk", DataType.INT), ("pv", DataType.INT),
        ]))
        plan = hash_join(
            scan(catalog, "build_side"), scan(catalog, "empty_probe"),
            build_key="bk", probe_key="pk", join_type="inner",
        )
        handle, _, _ = _run(catalog, plan, 2)
        assert handle.rows == []

    def test_empty_build_anti_join(self, catalog):
        catalog.create("empty_build", Schema([
            ("bk", DataType.INT), ("bv", DataType.INT),
        ]))
        plan = hash_join(
            scan(catalog, "empty_build"), scan(catalog, "probe_side"),
            build_key="bk", probe_key="pk", join_type="anti",
        )
        expected = sorted(execute_reference(plan, catalog))
        handle, _, _ = _run(catalog, plan, 2)
        assert sorted(handle.rows) == expected

    def test_shared_group_with_spilling_pivot(self, catalog):
        """A sharing group whose pivot is the spilling join still
        delivers every member the right answer."""
        plan = _join_plan(catalog, "inner")
        expected = sorted(execute_reference(plan, catalog))
        sim = Simulator(processors=4)
        engine = Engine(
            catalog, sim, costs=IO_AWARE_COST_MODEL,
            buffer_pool=BufferPool(32), memory=MemoryBroker(4),
        )
        group = engine.execute_group(
            [plan] * 3, pivot_op_id=plan.op_id, labels=["a", "b", "c"],
        )
        sim.run()
        for handle in group.handles:
            assert sorted(handle.rows) == expected


class TestGracefulDegradation:
    def test_spill_monotone_and_no_failure(self, catalog):
        plan = _join_plan(catalog, "inner")
        spills, makespans, answers = [], [], set()
        for work_mem in WORK_MEMS:  # descending budgets
            handle, engine, sim = _run(catalog, plan, work_mem)
            spills.append(engine.pool.stats.spill_pages_written)
            makespans.append(sim.now)
            answers.add(len(handle.rows))
        assert len(answers) == 1
        assert spills == sorted(spills)  # shrinking budget, growing spill
        assert spills[0] == 0  # ample memory: the hybrid join never spills
        assert spills[-1] > 0  # one page: it must spill
        assert makespans[-1] >= makespans[0]

    def test_ungoverned_engine_unchanged(self, catalog):
        """Without a broker the join is the seed's in-memory build —
        no spill files, no grants, identical rows."""
        plan = _join_plan(catalog, "inner")
        sim = Simulator(processors=4)
        engine = Engine(catalog, sim)
        handle = engine.execute(plan, "plain")
        sim.run()
        assert engine.pool is None and engine.memory is None
        assert sorted(handle.rows) == sorted(execute_reference(plan, catalog))

    def test_grants_closed_and_accounted(self, catalog):
        plan = _join_plan(catalog, "inner")
        _, engine, _ = _run(catalog, plan, 4)
        memory = engine.memory
        assert memory.in_use == 0
        assert all(grant.closed for grant in memory.grants())
        assert memory.high_water > 0

    def test_determinism(self, catalog):
        """Same budget, same trace: spill counters and makespan agree
        across runs (partitioning is PYTHONHASHSEED-independent)."""
        plan = _join_plan(catalog, "semi")
        first = _run(catalog, plan, 3)
        second = _run(catalog, plan, 3)
        assert first[2].now == second[2].now
        assert (first[1].pool.stats.spill_pages_written
                == second[1].pool.stats.spill_pages_written)
        assert first[0].rows == second[0].rows
