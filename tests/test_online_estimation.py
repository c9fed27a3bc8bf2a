"""Tests for online parameter estimation and the learning policy."""

import pytest

from repro.core import metrics
from repro.errors import EstimationError, PolicyError
from repro.policies import ModelGuidedPolicy, OnlineModelGuidedPolicy
from repro.profiling import OnlineEstimator, QueryProfiler
from repro.tpch.generator import generate
from repro.tpch.queries import build
from repro.workload import WorkloadMix, run_closed_system


@pytest.fixture(scope="module")
def catalog():
    return generate(scale_factor=0.0005, seed=41)


@pytest.fixture(scope="module")
def q6(catalog):
    return build("q6", catalog)


@pytest.fixture(scope="module")
def offline_profile(catalog, q6):
    return QueryProfiler(catalog).profile(q6.plan, q6.pivot, label="q6")


def run_group(catalog, query, m, processors=8):
    """Execute one (possibly shared) group, return its stage tasks."""
    from repro.engine import Engine
    from repro.sim import Simulator

    sim = Simulator(processors=processors)
    engine = Engine(catalog, sim)
    if m == 1:
        group = engine.execute_group([query.plan], pivot_op_id=None)
    else:
        group = engine.execute_group([query.plan] * m,
                                     pivot_op_id=query.pivot)
    sim.run()
    return engine.group_tasks[group.group_id]


class TestOnlineEstimator:
    def test_not_ready_until_shared_and_unshared_seen(self, catalog, q6):
        estimator = OnlineEstimator(q6.plan, q6.pivot, label="q6")
        assert not estimator.ready()
        estimator.observe_group(1, run_group(catalog, q6, 1))
        assert not estimator.ready()  # pivot only seen with 1 consumer
        estimator.observe_group(4, run_group(catalog, q6, 4))
        assert estimator.ready()

    def test_not_ready_spec_raises(self, q6):
        estimator = OnlineEstimator(q6.plan, q6.pivot)
        with pytest.raises(EstimationError, match="not ready"):
            estimator.current_spec()

    def test_converges_to_offline_profile(self, catalog, q6,
                                          offline_profile):
        estimator = OnlineEstimator(q6.plan, q6.pivot, label="q6")
        for m in (1, 2, 4):
            estimator.observe_group(m, run_group(catalog, q6, m))
        online_spec = estimator.current_spec()
        offline_spec = offline_profile.to_query_spec()
        assert metrics.p_max(online_spec) == pytest.approx(
            metrics.p_max(offline_spec), rel=0.02
        )
        assert metrics.total_work(online_spec) == pytest.approx(
            metrics.total_work(offline_spec), rel=0.02
        )

    def test_prior_seeds_readiness(self, q6, offline_profile):
        estimator = OnlineEstimator(q6.plan, q6.pivot, label="q6",
                                    prior=offline_profile)
        assert estimator.ready()
        spec = estimator.current_spec()
        assert metrics.p_max(spec) == pytest.approx(
            metrics.p_max(offline_profile.to_query_spec()), rel=1e-6
        )

    def test_rolling_window_bounds_memory(self, catalog, q6):
        estimator = OnlineEstimator(q6.plan, q6.pivot, window=4)
        tasks = run_group(catalog, q6, 2)
        for _ in range(10):
            estimator.observe_group(2, tasks)
        for bucket in estimator._samples.values():
            assert len(bucket) <= 4

    def test_invalid_window(self, q6):
        with pytest.raises(EstimationError):
            OnlineEstimator(q6.plan, q6.pivot, window=1)

    def test_invalid_group_size(self, catalog, q6):
        estimator = OnlineEstimator(q6.plan, q6.pivot)
        with pytest.raises(EstimationError):
            estimator.observe_group(0, run_group(catalog, q6, 1))


class TestOnlineModelGuidedPolicy:
    def test_explores_then_settles_on_many_cores(self, catalog, q6,
                                                 offline_profile):
        """On 32 cpus the policy must learn that Q6 sharing loses: after
        the exploration budget, shared submissions stop."""
        def run(policy):
            return run_closed_system(
                catalog, policy, WorkloadMix.single("q6"), n_clients=10,
                processors=32, warmup=100_000.0, window=400_000.0,
            )

        policy = OnlineModelGuidedPolicy({"q6": q6}, exploration_budget=2)
        result = run(policy)
        estimator = policy.estimators["q6"]
        assert estimator.ready()
        # Exploration happened, then the learned model said no.
        assert policy.exploration_shares > 0
        assert result.solo_submissions > 5 * result.shared_submissions
        # It lands where offline profiling starts, and the exploration
        # it paid to get there costs a bounded share of throughput.
        offline = run(ModelGuidedPolicy(
            {"q6": (offline_profile.to_query_spec(), q6.pivot)}
        ))
        assert offline.shared_submissions == 0
        assert result.throughput > 0.85 * offline.throughput

    def test_keeps_sharing_on_one_core(self, catalog, q6):
        """On 1 cpu the learned model keeps approving Q6 sharing."""
        policy = OnlineModelGuidedPolicy({"q6": q6}, exploration_budget=2)
        result = run_closed_system(
            catalog, policy, WorkloadMix.single("q6"),
            n_clients=10, processors=1, warmup=100_000.0, window=400_000.0,
        )
        assert result.shared_submissions > result.solo_submissions

    def test_zero_budget_without_prior_never_shares(self, catalog, q6):
        policy = OnlineModelGuidedPolicy({"q6": q6}, exploration_budget=0)
        result = run_closed_system(
            catalog, policy, WorkloadMix.single("q6"),
            n_clients=6, processors=1, warmup=50_000.0, window=150_000.0,
        )
        assert result.shared_submissions == 0

    def test_prior_enables_decisions_without_exploration(
        self, catalog, q6, offline_profile
    ):
        policy = OnlineModelGuidedPolicy(
            {"q6": q6}, exploration_budget=0,
            priors={"q6": offline_profile},
        )
        assert policy.should_share("q6", 10, 1)
        assert not policy.should_share("q6", 10, 32)
        # Through the driver: the prior already says "don't" on 32
        # cpus, so not one exploratory share is paid.
        result = run_closed_system(
            catalog, policy, WorkloadMix.single("q6"),
            n_clients=4, processors=32, warmup=20_000.0, window=100_000.0,
        )
        assert policy.exploration_shares == 0
        assert result.shared_submissions == 0

    def test_unknown_query_rejected(self, q6):
        policy = OnlineModelGuidedPolicy({"q6": q6})
        with pytest.raises(PolicyError):
            policy.should_share("q99", 4, 2)

    def test_empty_queries_rejected(self):
        with pytest.raises(PolicyError):
            OnlineModelGuidedPolicy({})

    def test_negative_budget_rejected(self, q6):
        with pytest.raises(PolicyError):
            OnlineModelGuidedPolicy({"q6": q6}, exploration_budget=-1)
