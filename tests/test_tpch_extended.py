"""Tests for the limit operator and the extended TPC-H suite."""

import pytest

from repro.engine import Engine, execute_reference, limit, scan, sort
from repro.errors import PlanError
from repro.sim import Simulator
from repro.storage import Catalog, DataType, Schema
from repro.tpch.extended_queries import EXTENDED_QUERIES, build_extended
from repro.tpch.generator import generate


@pytest.fixture(scope="module")
def tpch():
    return generate(scale_factor=0.001, seed=23)


@pytest.fixture
def small_catalog():
    cat = Catalog()
    t = cat.create("items", Schema([("id", DataType.INT)]))
    for i in range(100):
        t.insert((i,))
    return cat


def run_staged(catalog, plan, processors=4):
    sim = Simulator(processors=processors)
    engine = Engine(catalog, sim)
    handle = engine.execute(plan, "q")
    sim.run()
    return handle.rows


class TestLimit:
    def test_takes_first_n(self, small_catalog):
        plan = limit(scan(small_catalog, "items"), 7)
        assert run_staged(small_catalog, plan) == [(i,) for i in range(7)]

    def test_zero_limit(self, small_catalog):
        plan = limit(scan(small_catalog, "items"), 0)
        assert run_staged(small_catalog, plan) == []

    def test_limit_larger_than_input(self, small_catalog):
        plan = limit(scan(small_catalog, "items"), 1000)
        assert len(run_staged(small_catalog, plan)) == 100

    def test_negative_limit_rejected(self, small_catalog):
        with pytest.raises(PlanError):
            limit(scan(small_catalog, "items"), -1)

    def test_top_n_pattern(self, small_catalog):
        plan = limit(sort(scan(small_catalog, "items"), [("id", False)]), 3)
        assert run_staged(small_catalog, plan) == [(99,), (98,), (97,)]

    def test_matches_reference(self, small_catalog):
        plan = limit(scan(small_catalog, "items"), 13)
        assert run_staged(small_catalog, plan) == (
            execute_reference(plan, small_catalog)
        )

    def test_no_deadlock_with_tiny_queues(self, small_catalog):
        """The limit stage must drain its producer even after the quota
        is reached, or the scan deadlocks on a full queue."""
        plan = limit(scan(small_catalog, "items"), 2)
        sim = Simulator(processors=1)
        engine = Engine(small_catalog, sim, page_rows=4, queue_capacity=1)
        handle = engine.execute(plan, "q")
        sim.run()
        assert handle.rows == [(0,), (1,)]


class TestExtendedSuite:
    def test_four_queries(self):
        assert set(EXTENDED_QUERIES) == {"q3", "q10", "q12", "q14"}

    def test_unknown_rejected(self, tpch):
        with pytest.raises(KeyError):
            build_extended("q99", tpch)

    @pytest.mark.parametrize("name", sorted(EXTENDED_QUERIES))
    def test_staged_matches_reference(self, name, tpch):
        query = build_extended(name, tpch)
        assert run_staged(tpch, query.plan) == (
            execute_reference(query.plan, tpch)
        )

    @pytest.mark.parametrize("name", sorted(EXTENDED_QUERIES))
    def test_shared_groups_correct(self, name, tpch):
        query = build_extended(name, tpch)
        reference = execute_reference(query.plan, tpch)
        sim = Simulator(processors=4)
        engine = Engine(tpch, sim)
        group = engine.execute_group(
            [query.plan] * 3, pivot_op_id=query.pivot,
            labels=[f"{name}#{i}" for i in range(3)],
        )
        sim.run()
        assert all(h.rows == reference for h in group.handles)

    def test_q3_top10(self, tpch):
        rows = execute_reference(build_extended("q3", tpch).plan, tpch)
        assert len(rows) <= 10
        revenues = [r[3] for r in rows]
        assert revenues == sorted(revenues, reverse=True)

    def test_q10_top20_revenue_positive(self, tpch):
        rows = execute_reference(build_extended("q10", tpch).plan, tpch)
        assert 0 < len(rows) <= 20
        assert all(r[3] > 0 for r in rows)

    def test_q12_ship_modes(self, tpch):
        rows = execute_reference(build_extended("q12", tpch).plan, tpch)
        modes = [r[0] for r in rows]
        assert set(modes) <= {"MAIL", "SHIP"}
        for _, high, low in rows:
            assert high >= 0 and low >= 0

    def test_q14_percentage_in_range(self, tpch):
        rows = execute_reference(build_extended("q14", tpch).plan, tpch)
        assert len(rows) == 1
        assert 0.0 <= rows[0][0] <= 100.0

    def test_join_heavy_sharing_wins_on_small_machines(self, tpch):
        """The extended joins inherit the paper's join-sharing result."""
        from repro.experiments.common import batch_speedup

        for name in ("q3", "q10", "q12"):
            query = build_extended(name, tpch)
            assert batch_speedup(tpch, query, 8, 1) > 2.0
