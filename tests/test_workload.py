"""Tests for the closed-system workload driver (repro.workload)."""

import pytest

from repro.errors import WorkloadError
from repro.policies import AlwaysShare, NeverShare
from repro.tpch.generator import generate
from repro.workload import WorkloadMix, run_closed_system


@pytest.fixture(scope="module")
def catalog():
    return generate(scale_factor=0.0005, seed=17)


class TestWorkloadMix:
    def test_weights_normalized(self):
        mix = WorkloadMix({"q1": 3.0, "q4": 1.0})
        assert mix.weights["q1"] == pytest.approx(0.75)
        assert mix.weights["q4"] == pytest.approx(0.25)

    def test_single(self):
        mix = WorkloadMix.single("q6")
        assert mix.weights == {"q6": 1.0}

    def test_two_way_fractions(self):
        mix = WorkloadMix.two_way("q1", "q4", 0.25)
        assert mix.weights["q4"] == pytest.approx(0.25)
        assert WorkloadMix.two_way("q1", "q4", 0.0).weights == {"q1": 1.0}
        assert WorkloadMix.two_way("q1", "q4", 1.0).weights == {"q4": 1.0}

    def test_invalid_fraction(self):
        with pytest.raises(WorkloadError):
            WorkloadMix.two_way("q1", "q4", 1.5)

    def test_empty_mix_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadMix({})

    def test_negative_weight_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadMix({"q1": -1.0})

    def test_stream_deterministic_per_client(self):
        mix = WorkloadMix({"q1": 0.5, "q4": 0.5}, seed=7)
        stream_a, stream_b = mix.stream(3), mix.stream(3)
        a = [next(stream_a) for _ in range(20)]
        b = [next(stream_b) for _ in range(20)]
        assert a == b

    def test_stream_differs_across_clients(self):
        mix = WorkloadMix({"q1": 0.5, "q4": 0.5}, seed=7)
        stream_a, stream_b = mix.stream(0), mix.stream(1)
        a = [next(stream_a) for _ in range(30)]
        b = [next(stream_b) for _ in range(30)]
        assert a != b

    def test_stream_respects_weights(self):
        mix = WorkloadMix({"q1": 0.9, "q4": 0.1}, seed=7)
        stream = mix.stream(0)
        names = [next(stream) for _ in range(500)]
        fraction_q4 = names.count("q4") / len(names)
        assert 0.05 < fraction_q4 < 0.2


class TestClosedSystemDriver:
    def test_throughput_positive_and_closed(self, catalog):
        result = run_closed_system(
            catalog, NeverShare(), WorkloadMix.single("q6"),
            n_clients=4, processors=4, warmup=20_000, window=200_000,
        )
        assert result.completions > 0
        assert result.throughput > 0
        # Busy time is charged when a compute chunk is issued, so a
        # window boundary that cuts a chunk can overshoot slightly.
        assert 0 < result.utilization <= 1.02
        assert sum(result.completions_by_query.values()) == result.completions
        assert result.mean_response_time > 0

    def test_more_processors_more_throughput_unshared(self, catalog):
        kwargs = dict(
            catalog=catalog, policy=NeverShare(),
            mix=WorkloadMix.single("q6"), n_clients=8,
            warmup=20_000, window=300_000,
        )
        slow = run_closed_system(processors=1, **kwargs)
        fast = run_closed_system(processors=8, **kwargs)
        assert fast.throughput > 2 * slow.throughput

    def test_sharing_wins_on_one_processor(self, catalog):
        """Figure 1's crossover, measured through the full stack."""
        kwargs = dict(
            catalog=catalog, mix=WorkloadMix.single("q6"), n_clients=12,
            warmup=50_000, window=400_000,
        )
        always_1 = run_closed_system(policy=AlwaysShare(), processors=1,
                                     **kwargs)
        never_1 = run_closed_system(policy=NeverShare(), processors=1,
                                    **kwargs)
        assert always_1.throughput > 1.2 * never_1.throughput

    def test_sharing_loses_on_many_processors(self, catalog):
        kwargs = dict(
            catalog=catalog, mix=WorkloadMix.single("q6"), n_clients=12,
            warmup=50_000, window=400_000,
        )
        always = run_closed_system(policy=AlwaysShare(), processors=32,
                                   **kwargs)
        never = run_closed_system(policy=NeverShare(), processors=32,
                                  **kwargs)
        assert always.throughput < 0.5 * never.throughput
        # Section 8.1: capping the group size hands back some of the
        # parallelism one giant always-share group gives away.
        capped = run_closed_system(policy=AlwaysShare(), processors=32,
                                   max_group_size=2, **kwargs)
        assert capped.throughput > always.throughput

    def test_policy_metadata_recorded(self, catalog):
        result = run_closed_system(
            catalog, AlwaysShare(), WorkloadMix.single("q6"),
            n_clients=6, processors=2, warmup=20_000, window=150_000,
        )
        assert result.policy == "always"
        assert result.shared_submissions > 0

    def test_invalid_parameters(self, catalog):
        mix = WorkloadMix.single("q6")
        with pytest.raises(WorkloadError):
            run_closed_system(catalog, NeverShare(), mix, n_clients=0,
                              processors=2, warmup=1, window=1)
        with pytest.raises(WorkloadError):
            run_closed_system(catalog, NeverShare(), mix, n_clients=1,
                              processors=2, warmup=-1, window=1)
        with pytest.raises(WorkloadError):
            run_closed_system(catalog, NeverShare(), mix, n_clients=1,
                              processors=2, warmup=1, window=0)
