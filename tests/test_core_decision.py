"""Unit tests for the ShareAdvisor runtime decision API (Section 8)."""

import pytest

from repro.core.decision import ShareAdvisor
from repro.core.sensitivity import baseline_query
from repro.core.spec import QuerySpec, chain, op, sharers
from repro.errors import SpecError


def q6():
    return QuerySpec(chain(op("scan", 9.66, 10.34), op("agg", 0.97)), label="q6")


def group_of(query, m):
    return [query.relabeled(f"{query.label}#{i}") for i in range(m)]


class TestConstruction:
    def test_invalid_processors(self):
        with pytest.raises(SpecError):
            ShareAdvisor(processors=0)

    def test_invalid_threshold(self):
        with pytest.raises(SpecError):
            ShareAdvisor(processors=4, threshold=0.0)


class TestEvaluate:
    def test_q6_one_cpu_recommends_sharing(self):
        decision = ShareAdvisor(processors=1).evaluate(group_of(q6(), 16), "scan")
        assert decision.share
        assert decision.benefit > 1.0
        assert bool(decision) is True

    def test_q6_32_cpu_rejects_sharing(self):
        decision = ShareAdvisor(processors=32).evaluate(group_of(q6(), 16), "scan")
        assert not decision.share
        assert decision.benefit < 1.0

    def test_singleton_group_never_shares(self):
        decision = ShareAdvisor(processors=1).evaluate(group_of(q6(), 1), "scan")
        assert not decision.share

    def test_rates_exposed(self):
        decision = ShareAdvisor(processors=2).evaluate(group_of(q6(), 8), "scan")
        assert decision.shared_rate > 0
        assert decision.unshared_rate > 0
        assert decision.group_size == 8
        assert decision.processors == 2

    def test_processors_override(self):
        advisor = ShareAdvisor(processors=32)
        n1 = advisor.evaluate(group_of(q6(), 16), "scan", processors=1)
        assert n1.share
        assert n1.processors == 1

    def test_threshold_raises_bar(self):
        group = group_of(q6(), 16)
        permissive = ShareAdvisor(processors=1, threshold=1.0).evaluate(group, "scan")
        strict = ShareAdvisor(processors=1, threshold=10.0).evaluate(group, "scan")
        assert permissive.share
        assert not strict.share
        assert permissive.benefit == pytest.approx(strict.benefit)


class TestShouldJoin:
    def test_join_uses_enlarged_group(self):
        advisor = ShareAdvisor(processors=1)
        base = group_of(q6(), 3)
        decision = advisor.should_join(base, q6().relabeled("new"), "scan")
        assert decision.group_size == 4

    def test_join_rejected_on_many_cores(self):
        advisor = ShareAdvisor(processors=32)
        base = group_of(q6(), 3)
        assert not advisor.should_join(base, q6().relabeled("new"), "scan")


class TestBestGroupSize:
    def test_q6_one_cpu_prefers_max(self):
        advisor = ShareAdvisor(processors=1)
        assert advisor.best_group_size(q6(), "scan", max_size=16) == 16

    def test_q6_32_cpu_prefers_one(self):
        advisor = ShareAdvisor(processors=32)
        assert advisor.best_group_size(q6(), "scan", max_size=16) == 1

    def test_baseline_16_cpu_intermediate(self):
        # Figure 4 (left): at 16 CPUs, sharing helps only past a load
        # threshold, so some group sizes share and small ones don't.
        advisor = ShareAdvisor(processors=16)
        best = advisor.best_group_size(baseline_query(), "pivot", max_size=40)
        assert best > 1

    def test_invalid_max_size(self):
        with pytest.raises(SpecError):
            ShareAdvisor(processors=4).best_group_size(q6(), "scan", max_size=0)


class TestDecisionCost:
    """A verdict costs what the plan costs, whatever the group size —
    asserted as a count of node visits, not a wall time."""

    @staticmethod
    def plan():
        join = op("join", 2.0, 0.5, op("scan", 9.66, 10.34), op("dim", 1.0, 0.2))
        return QuerySpec(op("agg", 0.97, 0.1, join), label="q")

    def visits_for(self, walk_visits, m):
        query = self.plan()  # a new root: nothing derived yet
        walk_visits[0] = 0
        ShareAdvisor(processors=8).evaluate(sharers(query, m), "join")
        return walk_visits[0]

    def test_evaluate_visits_do_not_grow_with_the_group(self, walk_visits):
        small = self.visits_for(walk_visits, 8)
        large = self.visits_for(walk_visits, 128)
        assert large <= small
        assert 0 < small <= 2 * len(self.plan().operators())

    def test_a_second_verdict_on_the_same_plan_walks_nothing(self, walk_visits):
        query = self.plan()
        advisor = ShareAdvisor(processors=8)
        advisor.evaluate(sharers(query, 16), "join")
        walk_visits[0] = 0
        advisor.evaluate(sharers(query, 64), "join")
        advisor.best_partitioning(query, "join", 24)
        assert walk_visits[0] == 0

    def test_partitioning_builds_its_members_once(self, monkeypatch):
        built = [0]
        relabeled = QuerySpec.relabeled

        def counted(self, label):
            built[0] += 1
            return relabeled(self, label)

        monkeypatch.setattr(QuerySpec, "relabeled", counted)
        advisor = ShareAdvisor(processors=8)
        advisor.best_partitioning(self.plan(), "join", 40)
        assert built[0] == 40
        built[0] = 0
        advisor.best_group_size(self.plan(), "join", 40)
        assert built[0] == 40
