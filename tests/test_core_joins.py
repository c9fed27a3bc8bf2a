"""Unit tests for join modeling (repro.core.joins, Section 5.3)."""

import pytest

from repro.core.joins import (
    hash_join,
    merge_join,
    nested_loop_join,
    sort_operator,
)
from repro.core.phases import decompose
from repro.core.spec import QuerySpec, op
from repro.errors import SpecError


def scan(name, p=5.0):
    return op(name, p)


class TestNestedLoopJoin:
    def test_fully_pipelined(self):
        j = nested_loop_join("nlj", scan("outer"), scan("inner"), work=4.0)
        q = QuerySpec(j, label="nlj-q")
        assert q.is_pipelined()
        assert len(decompose(q)) == 1

    def test_two_children(self):
        j = nested_loop_join("nlj", scan("outer"), scan("inner"), work=4.0)
        assert [c.name for c in j.children] == ["outer", "inner"]

    def test_negative_work_rejected(self):
        with pytest.raises(SpecError):
            nested_loop_join("nlj", scan("a"), scan("b"), work=-1.0)


class TestSortOperator:
    def test_blocking_with_cost_components(self):
        s = sort_operator("sort", scan("scan"), run_work=3.0, merge_work=2.0,
                          replay_work=0.5, output_cost=1.0)
        assert s.blocking
        assert s.work == 3.0
        assert s.internal_work == 2.0
        assert s.emit_work == 0.5

    def test_negative_component_rejected(self):
        with pytest.raises(SpecError):
            sort_operator("sort", scan("scan"), run_work=-1.0)


class TestMergeJoin:
    def test_three_subqueries_when_both_inputs_unsorted(self):
        j = merge_join("mj", scan("left"), scan("right"), merge_work=2.0)
        phases = decompose(QuerySpec(j, label="mj-q"))
        # two sort consumes + final merge pipeline
        assert len(phases) == 3
        assert phases[0].source == "mj_sortL"
        assert phases[1].source == "mj_sortR"

    def test_presorted_inputs_skip_sorts(self):
        j = merge_join(
            "mj", scan("left"), scan("right"), merge_work=2.0,
            left_sort=None, right_sort=None,
        )
        q = QuerySpec(j, label="mj-q")
        assert q.is_pipelined()
        assert len(decompose(q)) == 1

    def test_one_presorted_input(self):
        j = merge_join(
            "mj", scan("left"), scan("right"), merge_work=2.0, left_sort=None,
        )
        phases = decompose(QuerySpec(j, label="mj-q"))
        assert len(phases) == 2
        assert phases[0].source == "mj_sortR"

    def test_sort_with_internal_work_adds_phase(self):
        j = merge_join(
            "mj", scan("left"), scan("right"), merge_work=2.0,
            left_sort=(1.0, 0.5, 0.1), right_sort=None,
        )
        phases = decompose(QuerySpec(j, label="mj-q"))
        assert [p.kind for p in phases] == ["pipeline", "internal", "pipeline"]


class TestHashJoin:
    def test_two_subqueries(self):
        j = hash_join(
            "hj", scan("build_scan"), scan("probe_scan"),
            build_work=3.0, probe_work=2.0,
        )
        phases = decompose(QuerySpec(j, label="hj-q"))
        assert len(phases) == 2
        assert phases[0].source == "hj_build"

    def test_build_phase_contains_build_side_only(self):
        j = hash_join(
            "hj", scan("build_scan"), scan("probe_scan"),
            build_work=3.0, probe_work=2.0,
        )
        phases = decompose(QuerySpec(j, label="hj-q"))
        build_names = set(phases[0].query.operator_names())
        assert "build_scan" in build_names
        assert "probe_scan" not in build_names

    def test_probe_phase_gets_free_build_replay(self):
        j = hash_join(
            "hj", scan("build_scan"), scan("probe_scan"),
            build_work=3.0, probe_work=2.0,
        )
        final = decompose(QuerySpec(j, label="hj-q"))[-1].query
        assert final["hj_build#replay"].work == pytest.approx(0.0)

    def test_negative_costs_rejected(self):
        with pytest.raises(SpecError):
            hash_join("hj", scan("a"), scan("b"), build_work=-1.0, probe_work=1.0)
        with pytest.raises(SpecError):
            hash_join("hj", scan("a"), scan("b"), build_work=1.0, probe_work=-1.0)
