"""Unit tests for parameter estimation (repro.core.estimation)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.estimation import (
    Observation,
    estimate_many,
    estimate_operator,
)
from repro.errors import EstimationError


def synthetic_runs(w, s, sharer_counts, units=1000.0):
    """Observations generated exactly by the linear cost model."""
    return [
        Observation(busy_time=(w + s * m) * units, units=units, consumers=m)
        for m in sharer_counts
    ]


class TestObservation:
    def test_nonpositive_units_rejected(self):
        with pytest.raises(EstimationError):
            Observation(busy_time=1.0, units=0.0)

    def test_negative_busy_time_rejected(self):
        with pytest.raises(EstimationError):
            Observation(busy_time=-1.0, units=1.0)

    def test_zero_consumers_rejected(self):
        with pytest.raises(EstimationError):
            Observation(busy_time=1.0, units=1.0, consumers=0)


class TestEstimateOperator:
    def test_recovers_exact_parameters(self):
        est = estimate_operator(synthetic_runs(9.66, 10.34, [1, 2, 4, 8]))
        assert est.work == pytest.approx(9.66, abs=1e-9)
        assert est.output_cost == pytest.approx(10.34, abs=1e-9)
        assert est.residual == pytest.approx(0.0, abs=1e-9)

    def test_two_runs_suffice(self):
        est = estimate_operator(synthetic_runs(6.0, 1.0, [1, 4]))
        assert est.work == pytest.approx(6.0)
        assert est.output_cost == pytest.approx(1.0)

    def test_single_consumer_count_attributes_all_to_work(self):
        est = estimate_operator(synthetic_runs(6.0, 1.0, [1, 1, 1]))
        assert est.work == pytest.approx(7.0)
        assert est.output_cost == 0.0

    def test_noisy_observations_average_out(self):
        clean = synthetic_runs(5.0, 2.0, [1, 2, 3, 4, 5, 6])
        noisy = [
            Observation(
                busy_time=obs.busy_time * (1 + (0.01 if i % 2 else -0.01)),
                units=obs.units,
                consumers=obs.consumers,
            )
            for i, obs in enumerate(clean)
        ]
        est = estimate_operator(noisy)
        assert est.work == pytest.approx(5.0, rel=0.05)
        assert est.output_cost == pytest.approx(2.0, rel=0.05)
        assert est.residual > 0

    def test_estimates_clamped_nonnegative(self):
        # Pathological data sloping downward in consumers yields s < 0;
        # the estimate clamps it to 0.
        obs = [
            Observation(busy_time=10.0, units=1.0, consumers=1),
            Observation(busy_time=1.0, units=1.0, consumers=8),
        ]
        est = estimate_operator(obs)
        assert est.output_cost == 0.0
        assert est.work >= 0.0

    def test_p_helper(self):
        est = estimate_operator(synthetic_runs(6.0, 1.0, [1, 4]))
        assert est.p(5) == pytest.approx(11.0)

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            estimate_operator([])


def exact_fit(observations):
    """Least squares over the rationals: (intercept, slope, mean squared error)."""
    xs = [Fraction(obs.consumers) for obs in observations]
    ys = [Fraction(obs.busy_time / obs.units) for obs in observations]
    n = len(observations)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    intercept = mean_y - slope * mean_x
    mse = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / n
    return intercept, slope, mse


@st.composite
def profiled_runs(draw):
    """2-32 observations spread over 2-6 distinct consumer counts; busy
    times are zero or far above the range where products underflow."""
    counts = draw(st.lists(st.integers(1, 8), min_size=2, max_size=6, unique=True))
    extra = draw(st.lists(st.sampled_from(counts), max_size=32 - len(counts)))
    return [
        Observation(
            busy_time=draw(st.just(0.0) | st.floats(1e-6, 1e6)),
            units=draw(st.floats(0.5, 1e4)),
            consumers=m,
        )
        for m in counts + extra
    ]


class TestAgainstExactLeastSquares:
    @given(profiled_runs())
    def test_fit_matches_rational_arithmetic(self, observations):
        """Error at most 1e-12, relative to the true value or to the
        largest per-unit cost observed (an intercept that cancels to
        nearly zero has no digits of its own to be relative to)."""
        intercept, slope, mse = exact_fit(observations)
        est = estimate_operator(observations)
        scale = max(obs.busy_time / obs.units for obs in observations)
        for got, exact in (
            (est.work, max(intercept, 0)),
            (est.output_cost, max(slope, 0)),
            (est.residual, math.sqrt(mse)),
        ):
            assert math.isclose(got, exact, rel_tol=1e-12, abs_tol=1e-12 * scale)

    @given(st.integers(0, 2**20), st.integers(0, 2**20))
    def test_seeded_pair_is_inverted_exactly(self, a, b):
        """``OnlineEstimator._seed_from`` rebuilds a prior (w, s) as one
        observation at one consumer and one at two; on values whose
        sums are exact in binary the fit returns them to the bit."""
        w, s = a / 1024, b / 1024
        est = estimate_operator(
            [Observation(busy_time=w + s * m, units=1.0, consumers=m) for m in (1, 2)]
        )
        assert (est.work, est.output_cost, est.residual) == (w, s, 0.0)


class TestEstimateMany:
    def test_groups_by_name(self):
        samples = [
            ("scan", obs) for obs in synthetic_runs(9.66, 10.34, [1, 2, 4])
        ] + [("agg", obs) for obs in synthetic_runs(0.97, 0.0, [1, 1])]
        estimates = estimate_many(samples)
        assert set(estimates) == {"scan", "agg"}
        assert estimates["scan"].work == pytest.approx(9.66)
        assert estimates["agg"].work == pytest.approx(0.97)

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            estimate_many([])
