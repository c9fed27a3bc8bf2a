"""Unit tests for Section 5.1 (repro.core.closed_system)."""

import pytest

from repro.core.closed_system import (
    closed_peak_rate,
    closed_utilization,
    unshared_rate_closed,
)
from repro.core.model import unshared_rate
from repro.core.spec import QuerySpec, chain, op
from repro.errors import SpecError


def make_query(p_bottom, p_top, label):
    return QuerySpec(chain(op("scan", p_bottom), op("agg", p_top)), label=label)


@pytest.fixture
def fast_slow():
    return [make_query(2.0, 1.0, "fast"), make_query(10.0, 1.0, "slow")]


class TestClosedPeakRate:
    def test_identical_queries_match_open_model(self):
        q = make_query(4.0, 1.0, "q")
        group = [q.relabeled(f"q{i}") for i in range(6)]
        assert closed_peak_rate(group) == pytest.approx(6 / 4.0)

    def test_harmonic_mean_shape(self, fast_slow):
        # M^2 / sum(p_max) = 4 / 12
        assert closed_peak_rate(fast_slow) == pytest.approx(4 / 12.0)

    def test_faster_query_raises_aggregate(self, fast_slow):
        slow_only = [fast_slow[1], fast_slow[1].relabeled("slow2")]
        assert closed_peak_rate(fast_slow) > closed_peak_rate(slow_only)

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            closed_peak_rate([])


class TestClosedUtilization:
    def test_each_query_throttled_by_own_pmax(self, fast_slow):
        # fast: u' = 3, pmax = 2 -> 1.5; slow: u' = 11, pmax = 10 -> 1.1
        assert closed_utilization(fast_slow) == pytest.approx(1.5 + 1.1)

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            closed_utilization([])


class TestUnsharedRateClosed:
    def test_identical_queries_equal_open_variant(self):
        q = make_query(4.0, 3.0, "q")
        group = [q.relabeled(f"q{i}") for i in range(8)]
        for n in (1, 2, 4, 16):
            assert unshared_rate_closed(group, n) == pytest.approx(
                unshared_rate(group, n)
            )

    def test_mismatched_closed_exceeds_open_when_unsaturated(self, fast_slow):
        # Open model throttles the fast query to the slow one's rate;
        # the closed model lets its replacements keep arriving.
        for n in (2, 8, 32):
            assert unshared_rate_closed(fast_slow, n) > unshared_rate(fast_slow, n)
        # Saturated, the two baselines agree to first order.
        assert unshared_rate_closed(fast_slow, 1) == pytest.approx(
            unshared_rate(fast_slow, 1), rel=0.15
        )

    def test_contention_reduces_rate(self, fast_slow):
        assert unshared_rate_closed(fast_slow, 2, contention=0.7) <= (
            unshared_rate_closed(fast_slow, 2)
        )

    def test_monotone_in_n(self, fast_slow):
        rates = [unshared_rate_closed(fast_slow, n) for n in (1, 2, 4, 8)]
        assert rates == sorted(rates)

    def test_blocking_plan_rejected(self):
        q = QuerySpec(chain(op("scan", 1.0), op("sort", 2.0, blocking=True)))
        with pytest.raises(SpecError):
            unshared_rate_closed([q], 2)
