"""Tests for sharing policies and the runtime coordinator."""

import pytest

from repro.engine import Engine
from repro.errors import PolicyError
from repro.policies import (
    AlwaysShare,
    ModelGuidedPolicy,
    NeverShare,
    SharingCoordinator,
)
from repro.profiling import QueryProfiler
from repro.sim import Simulator
from repro.tpch.generator import generate
from repro.tpch.queries import build


@pytest.fixture(scope="module")
def catalog():
    return generate(scale_factor=0.0005, seed=9)


@pytest.fixture(scope="module")
def q6_spec(catalog):
    q = build("q6", catalog)
    profile = QueryProfiler(catalog).profile(q.plan, q.pivot, label="q6")
    return profile.to_query_spec(), q.pivot


@pytest.fixture(scope="module")
def q4_spec(catalog):
    q = build("q4", catalog)
    profile = QueryProfiler(catalog).profile(q.plan, q.pivot, label="q4")
    return profile.to_query_spec(), q.pivot


class TestStaticPolicies:
    def test_always_shares_groups(self):
        policy = AlwaysShare()
        assert policy.should_share("q6", 2, 32)
        assert policy.should_share("q6", 48, 1)

    def test_always_ignores_singletons(self):
        assert not AlwaysShare().should_share("q6", 1, 1)

    def test_never_never_shares(self):
        policy = NeverShare()
        assert not policy.should_share("q4", 2, 1)
        assert not policy.should_share("q4", 48, 1)

    def test_policy_names(self):
        assert AlwaysShare().name == "always"
        assert NeverShare().name == "never"


class TestModelGuidedPolicy:
    def test_scan_heavy_shares_on_one_cpu_only(self, q6_spec):
        policy = ModelGuidedPolicy({"q6": q6_spec})
        assert policy.should_share("q6", 16, 1)
        assert not policy.should_share("q6", 16, 32)

    def test_join_heavy_shares_on_few_cpus(self, q4_spec):
        policy = ModelGuidedPolicy({"q4": q4_spec})
        assert policy.should_share("q4", 8, 1)
        assert policy.should_share("q4", 8, 2)

    def test_singleton_never_shares(self, q6_spec):
        policy = ModelGuidedPolicy({"q6": q6_spec})
        assert not policy.should_share("q6", 1, 1)

    def test_unknown_query_rejected(self, q6_spec):
        policy = ModelGuidedPolicy({"q6": q6_spec})
        with pytest.raises(PolicyError):
            policy.should_share("q99", 4, 2)

    def test_empty_specs_rejected(self):
        with pytest.raises(PolicyError):
            ModelGuidedPolicy({})

    def test_threshold_raises_bar(self, q6_spec):
        spec, pivot = q6_spec
        lenient = ModelGuidedPolicy({"q6": (spec, pivot)}, threshold=1.0)
        strict = ModelGuidedPolicy({"q6": (spec, pivot)}, threshold=100.0)
        assert lenient.should_share("q6", 16, 1)
        assert not strict.should_share("q6", 16, 1)

    def test_decisions_cached(self, q6_spec):
        policy = ModelGuidedPolicy({"q6": q6_spec})
        first = policy.should_share("q6", 16, 1)
        assert policy._decision_cache[("q6", 16, 1)] == first


class TestCoordinator:
    def run_workload(self, catalog, policy, n_submissions=8, processors=4,
                     max_group_size=None):
        """Run ``n_submissions`` Q6s; returns the coordinator and the
        finished query handles in completion order."""
        sim = Simulator(processors=processors)
        engine = Engine(catalog, sim)
        coordinator = SharingCoordinator(engine, policy,
                                         max_group_size=max_group_size)
        query = build("q6", catalog)
        done = []
        for i in range(n_submissions):
            coordinator.submit(query, f"q6#{i}", on_complete=done.append)
        sim.run()
        return coordinator, done

    def test_never_share_launches_all_singletons(self, catalog):
        coord, done = self.run_workload(catalog, NeverShare())
        assert len(done) == 8
        assert coord.launched_group_sizes == [1] * 8
        assert len({h.group_id for h in done}) == 8
        assert coord.solo_submissions == 8

    def test_always_share_merges_simultaneous_arrivals(self, catalog):
        # Eight queries submitted at the same instant route as ONE
        # merged group — packets arriving together in a stage queue.
        coord, done = self.run_workload(catalog, AlwaysShare())
        assert len(done) == 8
        assert coord.launched_group_sizes == [8]
        assert len({h.group_id for h in done}) == 1
        assert coord.shared_submissions == 8

    def test_always_share_batches_behind_active_group(self, catalog):
        sim = Simulator(processors=4)
        engine = Engine(catalog, sim)
        coordinator = SharingCoordinator(engine, AlwaysShare())
        query = build("q6", catalog)
        done = []
        coordinator.submit(query, "first",
                           on_complete=lambda h: done.append(h.label))
        sim.run(until=1.0)  # the first query is now active, alone
        for i in range(7):
            coordinator.submit(query, f"later#{i}",
                               on_complete=lambda h: done.append(h.label))
        sim.run()
        assert len(done) == 8
        # The first runs alone; the stragglers merge behind it.
        assert sorted(coordinator.launched_group_sizes) == [1, 7]
        assert coordinator.shared_submissions == 7

    def test_max_group_size_splits_batches(self, catalog):
        coord, done = self.run_workload(catalog, AlwaysShare(),
                                        max_group_size=3)
        assert len(done) == 8
        assert max(coord.launched_group_sizes) <= 3

    def test_results_identical_across_policies(self, catalog):
        _, done_never = self.run_workload(catalog, NeverShare())
        _, done_always = self.run_workload(catalog, AlwaysShare())
        assert len(done_never) == len(done_always) == 8
        reference = done_always[0].rows
        assert all(h.rows == reference for h in done_always + done_never)

    def test_different_signatures_do_not_merge(self, catalog):
        sim = Simulator(processors=4)
        engine = Engine(catalog, sim)
        coordinator = SharingCoordinator(engine, AlwaysShare())
        q6, q4 = build("q6", catalog), build("q4", catalog)
        done = []
        for i in range(3):
            coordinator.submit(q6, f"q6#{i}", on_complete=done.append)
            coordinator.submit(q4, f"q4#{i}", on_complete=done.append)
        sim.run()
        assert len(done) == 6
        groups: dict = {}
        for handle in done:
            groups.setdefault(handle.group_id, []).append(handle.label.split("#")[0])
        assert sorted(map(len, groups.values())) == sorted(coordinator.launched_group_sizes)
        assert all(len(set(names)) == 1 for names in groups.values())

    def test_invalid_max_group_size(self, catalog):
        engine = Engine(catalog, Simulator(processors=2))
        with pytest.raises(PolicyError):
            SharingCoordinator(engine, AlwaysShare(), max_group_size=0)

    def test_pending_count_drains(self, catalog):
        sim = Simulator(processors=2)
        engine = Engine(catalog, sim)
        coordinator = SharingCoordinator(engine, AlwaysShare())
        query = build("q6", catalog)
        coordinator.submit(query, "first")
        sim.run(until=1.0)
        for i in range(4):
            coordinator.submit(query, f"q6#{i}")
        coordinator.drain()
        assert coordinator.pending_count() == 4
        sim.run()
        assert coordinator.pending_count() == 0
