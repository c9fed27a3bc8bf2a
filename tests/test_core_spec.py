"""Unit tests for model-level plan specs (repro.core.spec)."""

import dataclasses

import pytest

from repro.core.spec import OperatorSpec, QuerySpec, chain, op, sharers
from repro.errors import PivotError, SpecError


def q6_spec():
    return QuerySpec(chain(op("scan", 9.66, 10.34), op("agg", 0.97)), label="q6")


class TestOperatorSpec:
    def test_p_single_consumer(self):
        node = op("scan", 9.66, 10.34)
        assert node.p(1) == pytest.approx(20.0)

    def test_p_multiple_consumers(self):
        node = op("scan", 9.66, 10.34)
        assert node.p(3) == pytest.approx(9.66 + 3 * 10.34)

    def test_p_zero_consumers_drops_output_cost(self):
        node = op("scan", 9.66, 10.34)
        assert node.p(0) == pytest.approx(9.66)

    def test_p_negative_consumers_rejected(self):
        with pytest.raises(SpecError):
            op("scan", 1.0).p(-1)

    def test_negative_work_rejected(self):
        with pytest.raises(SpecError):
            op("scan", -1.0)

    def test_negative_output_cost_rejected(self):
        with pytest.raises(SpecError):
            op("scan", 1.0, -0.5)

    def test_nan_work_rejected(self):
        with pytest.raises(SpecError):
            op("scan", float("nan"))

    def test_infinite_work_rejected(self):
        with pytest.raises(SpecError):
            op("scan", float("inf"))

    def test_empty_name_rejected(self):
        with pytest.raises(SpecError):
            op("", 1.0)

    def test_non_numeric_work_rejected(self):
        with pytest.raises(SpecError):
            OperatorSpec(name="scan", work="ten")

    def test_bool_work_rejected(self):
        with pytest.raises(SpecError):
            OperatorSpec(name="scan", work=True)

    def test_internal_work_requires_blocking(self):
        with pytest.raises(SpecError):
            op("sort", 1.0, internal_work=2.0)

    def test_emit_work_requires_blocking(self):
        with pytest.raises(SpecError):
            op("sort", 1.0, emit_work=0.5)

    def test_blocking_fields_accepted(self):
        node = op("sort", 3.0, blocking=True, internal_work=2.0, emit_work=0.5)
        assert node.blocking
        assert node.internal_work == 2.0
        assert node.emit_work == 0.5

    def test_walk_preorder(self):
        tree = op("join", 1.0, 0.0, op("left", 2.0), op("right", 3.0))
        assert [n.name for n in tree.walk()] == ["join", "left", "right"]

    def test_structurally_equal_true(self):
        a = op("scan", 2.0, 1.0)
        b = op("scan", 2.0, 1.0)
        assert a.structurally_equal(b)

    def test_structurally_equal_differs_on_work(self):
        assert not op("scan", 2.0).structurally_equal(op("scan", 3.0))

    def test_structurally_equal_differs_on_children(self):
        a = op("f", 1.0, 0.0, op("scan", 2.0))
        b = op("f", 1.0, 0.0, op("scan", 9.0))
        assert not a.structurally_equal(b)

    def test_structurally_equal_differs_on_blocking(self):
        a = op("sort", 1.0, blocking=True)
        b = op("sort", 1.0)
        assert not a.structurally_equal(b)

    def test_relabeled_preserves_costs(self):
        node = op("sort", 3.0, 1.5, blocking=True, internal_work=2.0, emit_work=0.5)
        copy = node.relabeled("sort2")
        assert copy.name == "sort2"
        assert copy.work == node.work
        assert copy.output_cost == node.output_cost
        assert copy.internal_work == node.internal_work
        assert copy.emit_work == node.emit_work

    def test_with_children_replaces_inputs(self):
        node = op("agg", 1.0)
        child = op("scan", 5.0)
        updated = node.with_children((child,))
        assert updated.children == (child,)
        assert node.children == ()


class TestChain:
    def test_chain_builds_linear_pipeline(self):
        root = chain(op("scan", 1.0), op("filter", 2.0), op("agg", 3.0))
        assert root.name == "agg"
        assert root.children[0].name == "filter"
        assert root.children[0].children[0].name == "scan"

    def test_chain_single_node(self):
        root = chain(op("scan", 1.0))
        assert root.name == "scan"

    def test_chain_empty_rejected(self):
        with pytest.raises(SpecError):
            chain()

    def test_chain_rejects_nodes_with_children(self):
        parent = op("join", 1.0, 0.0, op("scan", 1.0))
        with pytest.raises(SpecError):
            chain(op("scan2", 1.0), parent)


class TestQuerySpec:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecError):
            QuerySpec(chain(op("scan", 1.0), op("scan", 2.0)))

    def test_operator_lookup(self):
        q = q6_spec()
        assert q["scan"].work == pytest.approx(9.66)
        assert "agg" in q
        assert "sort" not in q

    def test_unknown_pivot_raises(self):
        with pytest.raises(PivotError):
            q6_spec()["missing"]

    def test_operators_preorder_from_root(self):
        assert q6_spec().operator_names() == ("agg", "scan")

    def test_below_pivot(self):
        q = QuerySpec(
            chain(op("scan", 1.0), op("filter", 2.0), op("agg", 3.0)), label="q"
        )
        assert [n.name for n in q.below("filter")] == ["scan"]
        assert q.below("scan") == ()

    def test_above_pivot(self):
        q = QuerySpec(
            chain(op("scan", 1.0), op("filter", 2.0), op("agg", 3.0)), label="q"
        )
        assert [n.name for n in q.above("filter")] == ["agg"]
        assert [n.name for n in q.above("agg")] == []

    def test_above_and_below_partition_plan(self):
        q = QuerySpec(
            op("join", 1.0, 0.0, chain(op("s1", 1.0), op("f1", 1.0)), op("s2", 2.0)),
            label="q",
        )
        for pivot in q.operator_names():
            names = {n.name for n in q.below(pivot)}
            names |= {n.name for n in q.above(pivot)}
            names |= {n.name for n in q[pivot].walk()} - {
                n.name for n in q.below(pivot)
            }
            assert names == set(q.operator_names())

    def test_is_pipelined(self):
        assert q6_spec().is_pipelined()
        blocked = QuerySpec(
            chain(op("scan", 1.0), op("sort", 2.0, blocking=True), op("agg", 1.0))
        )
        assert not blocked.is_pipelined()
        assert [n.name for n in blocked.blocking_operators()] == ["sort"]

    def test_require_pipelined_raises_with_names(self):
        blocked = QuerySpec(
            chain(op("scan", 1.0), op("sort", 2.0, blocking=True)), label="qs"
        )
        with pytest.raises(SpecError, match="sort"):
            blocked.require_pipelined("test")

    def test_relabeled(self):
        q = q6_spec().relabeled("q6-copy")
        assert q.label == "q6-copy"
        assert q.root is q6_spec().root or q.root.structurally_equal(q6_spec().root)

    def test_root_must_be_operator(self):
        with pytest.raises(SpecError):
            QuerySpec(root="scan")


class TestImmutabilityContract:
    """The derived facts are computed once per root and shared between
    twins; that is only sound because nothing can change under them."""

    def test_frozen_means_frozen(self):
        q = q6_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.root = op("other", 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.label = "renamed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.facts = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            q["scan"].work = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            q["agg"].children = ()
        assert isinstance(q["agg"].children, tuple)
        # A list passed at construction is frozen into a tuple too.
        assert isinstance(OperatorSpec("agg", 1.0, children=[op("scan", 1.0)]).children, tuple)

    def test_twins_share_root_and_facts(self):
        q = q6_spec()
        twin = q.relabeled("twin")
        assert twin.root is q.root and twin.facts is q.facts
        assert twin.label == "twin" and q.label == "q6"
        assert twin == QuerySpec(q.root, label="twin")
        assert [t.label for t in sharers(q, 3)] == ["q6#0", "q6#1", "q6#2"]
        assert [t.label for t in sharers(q, 2, "client")] == ["client#0", "client#1"]
        assert all(t.facts is q.facts for t in sharers(q, 3))

    def test_replace_derives_afresh(self):
        q = q6_spec()
        copy = dataclasses.replace(q, label="copy")
        assert copy.label == "copy" and copy.root is q.root
        assert copy.facts is not q.facts
        assert copy.operator_names() == q.operator_names()
        assert copy.below("agg") == q.below("agg") and copy.above("scan") == q.above("scan")
        # ...including re-validation of whatever it is handed.
        twice = op("agg", 1.0, 0.0, op("scan", 1.0), op("scan", 2.0))
        with pytest.raises(SpecError, match="duplicate"):
            dataclasses.replace(q, root=twice)

    def test_with_extra_work_rebuilds_only_the_path_to_the_operator(self):
        q = QuerySpec(
            op("join", 1.0, 0.0, chain(op("s1", 1.0), op("f1", 1.0)), op("s2", 2.0)),
            label="q",
        )
        bumped = q.with_extra_work("f1", 0.5)
        assert bumped["f1"].work == 1.5 and bumped.label == "q"
        assert bumped["s1"] is q["s1"] and bumped["s2"] is q["s2"]
        assert bumped["join"] is not q["join"] and bumped.facts is not q.facts
        assert q["f1"].work == 1.0
        assert q.with_extra_work("f1", 0.0) is q
        with pytest.raises(PivotError):
            q.with_extra_work("missing", 1.0)
