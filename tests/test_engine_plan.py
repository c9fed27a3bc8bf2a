"""Unit tests for physical plan construction (repro.engine.plan)."""

import pytest

from repro.db import Database
from repro.engine.expressions import Expr, col, gt, lt, mul, not_
from repro.engine.plan import (
    AggSpec,
    aggregate,
    filter_,
    hash_join,
    merge_join,
    nested_loop_join,
    project,
    scan,
    sort,
)
from repro.errors import PlanError, SchemaError
from repro.storage import Catalog, DataType, Schema


@pytest.fixture
def catalog():
    cat = Catalog()
    items = cat.create("items", Schema([
        ("id", DataType.INT), ("price", DataType.FLOAT),
    ]))
    for i in range(5):
        items.insert((i, float(i)))
    cat.create("tags", Schema([
        ("tag_id", DataType.INT), ("label", DataType.STR),
    ]))
    return cat


class TestScan:
    def test_plain_scan_schema(self, catalog):
        node = scan(catalog, "items")
        assert node.schema.names() == ("id", "price")
        assert node.kind == "scan"

    def test_projected_scan(self, catalog):
        node = scan(catalog, "items", columns=["price"])
        assert node.schema.names() == ("price",)

    def test_fused_scan_schema_from_outputs(self, catalog):
        node = scan(
            catalog, "items",
            predicate=lt(col("id"), 3),
            outputs=[("double", mul(col("price"), 2.0), DataType.FLOAT)],
        )
        assert node.schema.names() == ("double",)

    def test_fused_scan_empty_outputs_rejected(self, catalog):
        with pytest.raises(PlanError):
            scan(catalog, "items", outputs=[])

    def test_fused_scan_validates_predicate_columns(self, catalog):
        with pytest.raises(SchemaError):
            scan(catalog, "items", predicate=lt(col("ghost"), 3))

    def test_unknown_table_rejected(self, catalog):
        with pytest.raises(Exception):
            scan(catalog, "ghost")

    def test_signature_distinguishes_predicates(self, catalog):
        a = scan(catalog, "items", predicate=lt(col("id"), 3))
        b = scan(catalog, "items", predicate=lt(col("id"), 4))
        assert a.signature != b.signature

    def test_identical_scans_share_signature_and_auto_id(self, catalog):
        a = scan(catalog, "items", predicate=lt(col("id"), 3))
        b = scan(catalog, "items", predicate=lt(col("id"), 3))
        assert a.signature == b.signature
        assert a.op_id == b.op_id


class TestFilterProject:
    def test_filter_keeps_schema(self, catalog):
        node = filter_(scan(catalog, "items"), gt(col("price"), 1.0))
        assert node.schema.names() == ("id", "price")

    def test_filter_validates_columns(self, catalog):
        with pytest.raises(SchemaError):
            filter_(scan(catalog, "items"), gt(col("ghost"), 1.0))

    def test_filter_cost_factor_in_signature(self, catalog):
        base = scan(catalog, "items")
        cheap = filter_(base, gt(col("price"), 1.0))
        dear = filter_(base, gt(col("price"), 1.0), cost_factor=8.0)
        assert cheap.signature != dear.signature

    def test_filter_invalid_cost_factor(self, catalog):
        with pytest.raises(PlanError):
            filter_(scan(catalog, "items"), gt(col("price"), 1.0),
                    cost_factor=0.0)

    def test_project_schema(self, catalog):
        node = project(scan(catalog, "items"),
                       [("x", mul(col("price"), 3.0), DataType.FLOAT)])
        assert node.schema.names() == ("x",)
        assert node.schema.dtype_of("x") is DataType.FLOAT

    def test_project_empty_rejected(self, catalog):
        with pytest.raises(PlanError):
            project(scan(catalog, "items"), [])


class TestAggregate:
    def test_schema_keys_then_aggs(self, catalog):
        node = aggregate(scan(catalog, "items"), ["id"],
                         [AggSpec("sum", "total", col("price")),
                          AggSpec("count", "n")])
        assert node.schema.names() == ("id", "total", "n")
        assert node.schema.dtype_of("n") is DataType.INT
        assert node.schema.dtype_of("total") is DataType.FLOAT

    def test_unknown_group_key_rejected(self, catalog):
        with pytest.raises(SchemaError):
            aggregate(scan(catalog, "items"), ["ghost"],
                      [AggSpec("count", "n")])

    def test_empty_aggregate_rejected(self, catalog):
        with pytest.raises(PlanError):
            aggregate(scan(catalog, "items"), [], [])

    def test_agg_spec_validation(self):
        with pytest.raises(PlanError):
            AggSpec("median", "m", col("x"))
        with pytest.raises(PlanError):
            AggSpec("sum", "s")  # sum requires an expression
        AggSpec("count", "n")  # count(*) fine


class TestSort:
    def test_sort_keeps_schema(self, catalog):
        node = sort(scan(catalog, "items"), [("price", False)])
        assert node.schema.names() == ("id", "price")

    def test_empty_keys_rejected(self, catalog):
        with pytest.raises(PlanError):
            sort(scan(catalog, "items"), [])

    def test_unknown_key_rejected(self, catalog):
        with pytest.raises(SchemaError):
            sort(scan(catalog, "items"), [("ghost", True)])


class TestJoins:
    def test_inner_join_schema_probe_then_build(self, catalog):
        node = hash_join(
            build=scan(catalog, "tags"),
            probe=scan(catalog, "items"),
            build_key="tag_id",
            probe_key="id",
        )
        assert node.schema.names() == ("id", "price", "tag_id", "label")

    def test_semi_join_schema_probe_only(self, catalog):
        node = hash_join(
            build=scan(catalog, "tags"), probe=scan(catalog, "items"),
            build_key="tag_id", probe_key="id", join_type="semi",
        )
        assert node.schema.names() == ("id", "price")

    def test_duplicate_columns_rejected(self, catalog):
        with pytest.raises(PlanError, match="duplicate columns"):
            hash_join(
                build=scan(catalog, "items"), probe=scan(catalog, "items"),
                build_key="id", probe_key="id",
            )

    def test_unknown_join_type(self, catalog):
        with pytest.raises(PlanError):
            hash_join(
                build=scan(catalog, "tags"), probe=scan(catalog, "items"),
                build_key="tag_id", probe_key="id", join_type="cross",
            )

    def test_unknown_key_rejected(self, catalog):
        with pytest.raises(SchemaError):
            hash_join(
                build=scan(catalog, "tags"), probe=scan(catalog, "items"),
                build_key="ghost", probe_key="id",
            )

    def test_nlj_schema_and_predicate_scope(self, catalog):
        node = nested_loop_join(
            scan(catalog, "items"), scan(catalog, "tags"),
            predicate=lt(col("id"), col("tag_id")),
        )
        assert node.schema.names() == ("id", "price", "tag_id", "label")

    def test_merge_join_schema(self, catalog):
        node = merge_join(
            scan(catalog, "items"), scan(catalog, "tags"),
            left_key="id", right_key="tag_id",
        )
        assert node.schema.names() == ("id", "price", "tag_id", "label")


class TestNavigation:
    def test_walk_and_find(self, catalog):
        plan = aggregate(
            filter_(scan(catalog, "items", op_id="s"), gt(col("price"), 1.0),
                    op_id="f"),
            ["id"], [AggSpec("count", "n")], op_id="a",
        )
        assert [n.op_id for n in plan.walk()] == ["a", "f", "s"]
        assert plan.find("s").kind == "scan"
        with pytest.raises(PlanError):
            plan.find("ghost")


class _RowOnly(Expr):
    """A custom node with the row-wise half only: no ``_emit_batch``."""

    def compile(self, schema):
        return lambda row: True

    def signature(self):
        return "row_only()"


class TestUnloweredExprRejected:
    """An expression the stages cannot lower fails at plan construction —
    before any task is spawned — not from inside the engine."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda c, e: scan(c, "items", predicate=e),
            lambda c, e: scan(c, "items", outputs=[("x", e, DataType.INT)]),
            lambda c, e: filter_(scan(c, "items"), e),
            lambda c, e: project(scan(c, "items"), [("x", e, DataType.INT)]),
            lambda c, e: aggregate(scan(c, "items"), [], [AggSpec("sum", "x", e)]),
        ],
        ids=["scan-predicate", "scan-outputs", "filter", "project", "aggregate"],
    )
    def test_plan_constructors_reject(self, catalog, build):
        with pytest.raises(PlanError, match="row_only"):
            build(catalog, _RowOnly())
        # Nested below a node that does lower: still named and rejected.
        with pytest.raises(PlanError, match="row_only"):
            build(catalog, not_(_RowOnly()))

    def test_session_runs_the_next_query(self, catalog):
        session = Database.open(catalog)
        with pytest.raises(PlanError):
            session.run(session.table("items").filter(_RowOnly()))
        assert len(session.run(session.table("items")).rows) == 5
        assert not any(task.alive for task in session.sim.tasks)
