"""The exchange subsystem: fragments, regions, and answer parity.

Three layers of guarantee, bottom up: ``partition_ranges`` covers the
table exactly; ``find_region`` only offers strategies whose output is
safe under the plan's ancestors (order-sensitive and float-folding
ancestors fence off the join strategy); and end to end, a parallel
execution reproduces the serial answer at every ``dop`` — bit for bit
where the strategy promises order, as a set where it promises only
membership. Routing tests pin the session's dop plumbing and the
audit trail's ``parallel`` outcome.
"""

import pytest

from repro.db import Database, QueryBuilder, RuntimeConfig
from repro.engine import (
    AggSpec,
    Engine,
    aggregate,
    filter_,
    hash_join,
    limit,
    scan,
    sort,
)
from repro.engine.expressions import col, gt, lit
from repro.engine.parallel import find_region, partition_ranges
from repro.engine.reference import execute_reference
from repro.errors import EngineError, PlanError
from repro.sim.simulator import Simulator
from repro.storage import Catalog, DataType, Schema

ROWS = 600
GROUPS = 23


def _catalog():
    catalog = Catalog()
    schema = Schema(
        [("g", DataType.INT), ("k", DataType.INT), ("v", DataType.FLOAT)]
    )
    rows = [
        (i % GROUPS, i, ((i * 389) % ROWS) / ROWS) for i in range(ROWS)
    ]
    catalog.create("t", schema).insert_many(rows)
    dim = Schema([("dg", DataType.INT), ("w", DataType.FLOAT)])
    catalog.create("d", dim).insert_many(
        [(g, g / GROUPS) for g in range(GROUPS)]
    )
    return catalog


CATALOG = _catalog()


def _run(plan, dop=1, processors=4):
    sim = Simulator(processors=processors)
    engine = Engine(CATALOG, sim)
    handle = engine.execute(plan, f"q@dop{dop}", dop=dop)
    sim.run()
    return handle.rows


def _scan(columns=("g", "k", "v"), predicate=None):
    return scan(CATALOG, "t", columns=list(columns), predicate=predicate)


def _agg_plan():
    return aggregate(
        _scan(),
        ("g",),
        [AggSpec("sum", "total", col("v")), AggSpec("count", "n", None)],
    )


def _join_plan():
    return hash_join(
        scan(CATALOG, "d", columns=["dg", "w"]),
        _scan(),
        build_key="dg",
        probe_key="g",
    )


class TestPartitionRanges:
    @pytest.mark.parametrize("n_pages,dop", [
        (1, 1), (7, 2), (8, 4), (9, 4), (100, 8), (5, 16),
    ])
    def test_ranges_tile_the_table(self, n_pages, dop):
        ranges = partition_ranges(n_pages, dop)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_pages
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, no gap, no overlap

    @pytest.mark.parametrize("n_pages,dop", [(9, 4), (100, 8), (17, 3)])
    def test_lengths_differ_by_at_most_one(self, n_pages, dop):
        lengths = [hi - lo for lo, hi in partition_ranges(n_pages, dop)]
        assert max(lengths) - min(lengths) <= 1

    def test_small_table_caps_fragment_count(self):
        ranges = partition_ranges(3, 16)
        assert len(ranges) == 3
        assert all(hi > lo for lo, hi in ranges)  # never an empty range


class TestFindRegion:
    def test_bare_scan_is_a_scan_region(self):
        plan = _scan()
        node, strategy = find_region(plan)
        assert strategy == "scan"
        assert node.op_id == plan.op_id

    def test_streaming_chain_reaches_the_scan(self):
        base = _scan()
        plan = filter_(base, gt(col("v"), lit(0.5)))
        node, strategy = find_region(plan)
        assert (node.op_id, strategy) == (base.op_id, "scan")

    def test_grouped_aggregate_is_partition_wise(self):
        plan = _agg_plan()
        node, strategy = find_region(plan)
        assert (node.op_id, strategy) == (plan.op_id, "aggregate")

    def test_ungrouped_aggregate_parallelizes_its_scan_only(self):
        plan = aggregate(_scan(), (), [AggSpec("sum", "s", col("v"))])
        node, strategy = find_region(plan)
        # Global fold order must match serial: only the (order-exact)
        # scan below is fragmented.
        assert strategy == "scan"
        assert node.kind == "scan"

    def test_join_of_scan_chains_is_partition_wise(self):
        plan = _join_plan()
        node, strategy = find_region(plan)
        assert (node.op_id, strategy) == (plan.op_id, "hash_join")

    def test_limit_fences_the_join_strategy(self):
        assert find_region(limit(_join_plan(), 10)) is None

    def test_sort_fences_the_join_strategy(self):
        # A stable sort's tie order exposes its input order; the join
        # gather's order differs from serial, so no region is offered.
        assert find_region(sort(_join_plan(), [("g", True)])) is None

    def test_aggregate_above_join_fences_the_join_strategy(self):
        plan = aggregate(
            _join_plan(), ("g",), [AggSpec("sum", "s", col("v"))]
        )
        assert find_region(plan) is None

    def test_sort_above_scan_still_parallelizes_the_scan(self):
        base = _scan()
        node, strategy = find_region(sort(base, [("k", True)]))
        assert (node.op_id, strategy) == (base.op_id, "scan")


class TestAnswerParity:
    """Serial output is the contract at every dop."""

    @pytest.mark.parametrize("dop", [2, 3, 4, 8])
    def test_fragmented_scan_preserves_exact_order(self, dop):
        plan = _scan()
        assert _run(plan, dop=dop) == _run(plan)

    @pytest.mark.parametrize("dop", [2, 4])
    def test_fused_scan_with_predicate(self, dop):
        plan = _scan(predicate=gt(col("v"), lit(0.4)))
        assert _run(plan, dop=dop) == _run(plan)

    @pytest.mark.parametrize("dop", [2, 3, 4, 8])
    def test_partition_aggregate_is_bit_identical(self, dop):
        # Float accumulation order is preserved per group and the
        # ordered merge restores the global group order: == on floats.
        plan = _agg_plan()
        assert _run(plan, dop=dop) == _run(plan)

    @pytest.mark.parametrize("dop", [2, 4, 8])
    def test_partition_join_preserves_the_row_set(self, dop):
        serial = _run(_join_plan())
        parallel = _run(_join_plan(), dop=dop)
        assert sorted(parallel) == sorted(serial)

    def test_partition_join_order_is_deterministic(self):
        assert _run(_join_plan(), dop=4) == _run(_join_plan(), dop=4)

    def test_dop_beyond_page_count_still_correct(self):
        plan = _agg_plan()
        assert _run(plan, dop=64) == _run(plan)

    def test_sort_over_join_falls_back_and_keeps_tie_order(self):
        # Region fenced (sort ancestor): serial fallback, ties intact.
        plan = sort(_join_plan(), [("g", True)])
        assert _run(plan, dop=4) == _run(plan)

    def test_no_region_plan_falls_back_to_serial(self):
        plan = limit(_join_plan(), 25)
        assert _run(plan, dop=4) == _run(plan)


class TestFragmentGrants:
    """A partitioned aggregate or join splits its budget ``dop`` ways:
    each instance asks for ``max(1, work_mem // dop)`` pages, and the
    run leaves no memory, pin or spill frame behind."""

    @staticmethod
    def _query(shape, dop):
        if shape == "aggregate":
            builder = QueryBuilder(CATALOG, "t").agg(
                AggSpec("sum", "total", col("v")), AggSpec("count", "n"), by=("g",)
            )
        else:
            builder = QueryBuilder(CATALOG, "t").hash_join(
                QueryBuilder(CATALOG, "d"), build_key="dg", probe_key="g"
            )
        return builder.parallel(dop).build()

    @pytest.mark.parametrize("work_mem", [1, 4, 32, 512])
    @pytest.mark.parametrize("dop", [2, 4])
    @pytest.mark.parametrize("shape", ["aggregate", "hash_join"])
    def test_instances_share_the_budget_and_release_it(self, shape, dop, work_mem):
        session = Database.open(
            CATALOG, RuntimeConfig(work_mem=work_mem, pool_pages=16, page_rows=2, processors=4)
        )
        query = self._query(shape, dop)
        result = session.run(query, share=False)
        expected = execute_reference(query.plan, CATALOG)
        if shape == "aggregate":
            assert result.rows == expected
        else:
            assert sorted(result.rows) == sorted(expected)

        grants = result.grants
        assert len(grants) == dop
        assert len({grant.owner for grant in grants}) == 1
        assert {grant.pages for grant in grants} == {max(1, work_mem // dop)}
        if work_mem >= dop:
            assert sum(grant.pages for grant in grants) <= work_mem

        memory, pool = session.engine.memory, session.engine.pool
        assert memory.reserved == memory.in_use == 0
        assert all(grant.closed for grant in memory.grants())
        # Every frame left is a table page: no spill page outlived its file.
        assert len(pool) == pool.resident_pages("t") + pool.resident_pages("d")


def _mixed_key_catalog(keys):
    """An INT-keyed and a FLOAT-keyed table whose keys compare equal."""
    catalog = Catalog()
    catalog.create("ik", Schema([("i", DataType.INT), ("iv", DataType.INT)])).insert_many(
        [(k, k) for k in range(keys)]
    )
    catalog.create("fk", Schema([("f", DataType.FLOAT), ("fv", DataType.INT)])).insert_many(
        [(float(k), k) for k in range(keys)]
    )
    return catalog


@pytest.mark.parametrize("preset", ["unbounded", "cmp32"])
def test_int_float_join_keys_meet_in_one_partition(preset):
    # The exchange routes 1 and 1.0 to one partition, or the join
    # instance holding the build key never sees its probe match.
    catalog = _mixed_key_catalog(300)
    query = (
        QueryBuilder(catalog, "fk")
        .hash_join(QueryBuilder(catalog, "ik"), build_key="i", probe_key="f")
        .parallel(4)
        .build()
    )
    result = Database.open(catalog, preset).run(query, share=False)
    expected = execute_reference(query.plan, catalog)
    assert len(expected) == 300
    assert sorted(result.rows) == sorted(expected)


class TestExecuteGroup:
    """``Engine.execute_group`` is the one lowering: a group of one at
    ``dop > 1`` fragments its region, and its tasks ride the group."""

    @staticmethod
    def _group(plan, dop=1):
        sim = Simulator(processors=4)
        group = Engine(CATALOG, sim).execute_group([plan], None, dop=dop)
        sim.run()
        return group

    def test_parallel_group_owns_its_exchange_tasks(self):
        group = self._group(_agg_plan(), dop=4)
        names = [task.name for task in group.tasks]
        assert sum(name.endswith(".exchange") for name in names) == 4
        assert sum(name.endswith(".merge") for name in names) == 1
        assert not any(name.endswith("/sink") for name in names)
        assert group.handles[0].rows == self._group(_agg_plan()).handles[0].rows

    def test_plan_without_region_builds_the_serial_tasks(self):
        plan = limit(_join_plan(), 25)
        parallel, serial = self._group(plan, dop=4), self._group(plan)
        assert [t.name for t in parallel.tasks] == [t.name for t in serial.tasks]
        assert parallel.handles[0].rows == serial.handles[0].rows


class TestValidation:
    def test_engine_rejects_bad_dop(self):
        sim = Simulator(processors=2)
        engine = Engine(CATALOG, sim)
        with pytest.raises(EngineError):
            engine.execute(_scan(), "bad", dop=0)

    def test_config_rejects_bad_dop(self):
        with pytest.raises(EngineError):
            RuntimeConfig(dop=0)

    def test_builder_rejects_bad_dop(self):
        with pytest.raises(PlanError):
            QueryBuilder(CATALOG, "t").parallel(0)


class TestSessionRouting:
    def _query(self, dop=None):
        builder = (
            QueryBuilder(CATALOG, "t")
            .agg(AggSpec("sum", "total", col("v")), by=("g",))
            .named("routed")
        )
        if dop is not None:
            builder = builder.parallel(dop)
        return builder.build()

    def test_forced_solo_with_dop_audits_parallel(self):
        session = Database.open(CATALOG, RuntimeConfig(processors=8))
        serial = session.run(self._query(), share=False).rows
        session = Database.open(CATALOG, RuntimeConfig(processors=8))
        result = session.run(self._query(dop=4), share=False)
        assert result.rows == serial
        assert [r.outcome for r in session.audit_log().records] == ["parallel"]

    def test_session_default_dop_routes_through_projection(self):
        config = RuntimeConfig(processors=8, dop=4)
        session = Database.open(CATALOG, config)
        for i in range(3):
            session.submit(self._query(), label=f"routed#{i}")
        results = session.run_all()
        outcomes = {r.outcome for r in session.audit_log().records}
        # The four-way projection decided (whatever it chose, it is
        # one of the modes) and every member got the serial answer.
        assert outcomes <= {"solo", "share", "parallel", "both", "attach"}
        serial = Database.open(CATALOG, RuntimeConfig(processors=8)).run(
            self._query(), share=False
        ).rows
        assert all(r.rows == serial for r in results)

    def test_parallel_one_pins_query_serial(self):
        config = RuntimeConfig(processors=8, dop=4)
        session = Database.open(CATALOG, config)
        result = session.run(self._query(dop=1), share=False)
        assert [r.outcome for r in session.audit_log().records] == ["solo"]
        assert result.rows

    def test_fragments_attach_to_cooperative_scans(self):
        config = RuntimeConfig(
            processors=4, pool_pages=64, prefetch_depth=2
        )
        serial = Database.open(CATALOG, config).run(
            self._query(), share=False
        ).rows
        session = Database.open(CATALOG, config)
        result = session.run(self._query(dop=4), share=False)
        assert result.rows == serial
        snapshot = session.metrics().snapshot()
        assert snapshot["scan.t.attaches"] >= 4
