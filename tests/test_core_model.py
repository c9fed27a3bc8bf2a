"""Unit tests for shared/unshared rates and Z(m, n) (repro.core.model)."""

import pytest

from repro.core.model import (
    shared_metrics,
    shared_rate,
    sharing_benefit,
    unshared_rate,
    validate_group,
)
from repro.core.sensitivity import baseline_query
from repro.core.spec import QuerySpec, chain, op
from repro.errors import PivotError, SpecError


def q6_group(m):
    q6 = QuerySpec(chain(op("scan", 9.66, 10.34), op("agg", 0.97)), label="q6")
    return [q6.relabeled(f"q6#{i}") for i in range(m)]


def baseline_group(m):
    q = baseline_query()
    return [q.relabeled(f"b#{i}") for i in range(m)]


class TestValidateGroup:
    def test_empty_group_rejected(self):
        with pytest.raises(SpecError):
            validate_group([], "scan")

    def test_identical_group_ok(self):
        validate_group(q6_group(3), "scan")

    def test_missing_pivot_rejected(self):
        with pytest.raises(PivotError):
            validate_group(q6_group(2), "sort")

    def test_mismatched_pivot_work_rejected(self):
        a = QuerySpec(chain(op("scan", 9.66, 10.34), op("agg", 0.97)), label="a")
        b = QuerySpec(chain(op("scan", 5.0, 10.34), op("agg", 0.97)), label="b")
        with pytest.raises(PivotError, match="mismatched work"):
            validate_group([a, b], "scan")

    def test_mismatched_subtree_rejected(self):
        a = QuerySpec(
            chain(op("scan", 2.0), op("filter", 9.66, 10.34), op("agg", 0.97)),
            label="a",
        )
        b = QuerySpec(
            chain(op("scan", 3.0), op("filter", 9.66, 10.34), op("agg", 0.97)),
            label="b",
        )
        with pytest.raises(PivotError, match="differ below"):
            validate_group([a, b], "filter")

    def test_different_output_costs_allowed(self):
        a = QuerySpec(chain(op("scan", 9.66, 10.34), op("agg", 0.97)), label="a")
        b = QuerySpec(chain(op("scan", 9.66, 5.0), op("agg", 0.97)), label="b")
        validate_group([a, b], "scan")

    def test_blocking_plans_rejected(self):
        q = QuerySpec(chain(op("scan", 1.0), op("sort", 2.0, blocking=True)))
        with pytest.raises(SpecError):
            validate_group([q, q.relabeled("q2")], "scan")


class TestSharedMetrics:
    def test_q6_pivot_inflation(self):
        m = shared_metrics(q6_group(4), "scan")
        assert m.p_pivot == pytest.approx(9.66 + 4 * 10.34)
        assert m.p_max == pytest.approx(9.66 + 4 * 10.34)

    def test_q6_total_work(self):
        # u'_shared(M) = 9.66 + 11.31 M  (paper, Section 4.4)
        m = shared_metrics(q6_group(7), "scan")
        assert m.total_work == pytest.approx(9.66 + 11.31 * 7)

    def test_baseline_total_work(self):
        # bottom 10 once + pivot (6 + M) + top 10 per query = 16 + 11M
        m = shared_metrics(baseline_group(5), "pivot")
        assert m.total_work == pytest.approx(16 + 11 * 5)

    def test_baseline_p_max_transitions_to_pivot(self):
        # pivot p = 6 + M overtakes the p=10 stages at M > 4.
        assert shared_metrics(baseline_group(3), "pivot").p_max == pytest.approx(10.0)
        assert shared_metrics(baseline_group(4), "pivot").p_max == pytest.approx(10.0)
        assert shared_metrics(baseline_group(5), "pivot").p_max == pytest.approx(11.0)

    def test_baseline_utilization_saturates_near_eleven(self):
        # "work sharing ... utilizes only 10 cores even for large
        # numbers of shared queries" — u_shared -> 11 asymptotically,
        # ~9.9 at M=40.
        m = shared_metrics(baseline_group(40), "pivot")
        assert m.utilization == pytest.approx((16 + 11 * 40) / 46.0)
        assert 9.5 < m.utilization < 10.5

    def test_mixed_output_costs_sum_at_pivot(self):
        a = QuerySpec(chain(op("scan", 9.66, 10.0), op("agg", 0.97)), label="a")
        b = QuerySpec(chain(op("scan", 9.66, 2.0), op("agg", 0.97)), label="b")
        m = shared_metrics([a, b], "scan")
        assert m.p_pivot == pytest.approx(9.66 + 12.0)


class TestUnsharedRate:
    def test_q6_formula(self):
        # x_unshared(M, n) = min(M/20, n/20.97) for M copies of Q6.
        for m in (1, 4, 16, 48):
            for n in (1, 2, 8, 32):
                expected = min(m / 20.0, n / (20.97))
                assert unshared_rate(q6_group(m), n) == pytest.approx(expected)

    def test_scales_linearly_before_saturation(self):
        r1 = unshared_rate(baseline_group(1), 32)
        r2 = unshared_rate(baseline_group(2), 32)
        assert r2 == pytest.approx(2 * r1)

    def test_saturates_with_m(self):
        # With 2 processors the group saturates; adding queries cannot help.
        r8 = unshared_rate(baseline_group(8), 2)
        r16 = unshared_rate(baseline_group(16), 2)
        assert r16 == pytest.approx(r8)

    def test_monotone_in_n(self):
        group = baseline_group(16)
        rates = [unshared_rate(group, n) for n in (1, 2, 4, 8, 16, 32, 64)]
        assert rates == sorted(rates)

    def test_contention_reduces_rate(self):
        group = baseline_group(16)
        assert unshared_rate(group, 8, contention=0.8) < unshared_rate(group, 8)

    def test_empty_group_rejected(self):
        with pytest.raises(SpecError):
            unshared_rate([], 4)


class TestSharedRate:
    def test_q6_formula(self):
        # x_shared(M, n) = min(1/(9.66/M + 10.34), n/(9.66/M + 11.31))
        for m in (1, 4, 16, 48):
            for n in (1, 2, 8, 32):
                expected = min(
                    1.0 / (9.66 / m + 10.34),
                    n / (9.66 / m + 11.31),
                )
                assert shared_rate(q6_group(m), "scan", n) == pytest.approx(expected)

    def test_shared_rate_bounded_regardless_of_m(self):
        # The pivot caps shared throughput below 1/s no matter how many
        # sharers join.
        for m in (8, 16, 48):
            assert shared_rate(q6_group(m), "scan", 32) < 1 / 10.34

    def test_sharing_at_root_eliminates_whole_plan(self):
        group = q6_group(4)
        m = shared_metrics(group, "agg")
        # Everything below agg (the scan) is shared; the pivot pays s=0.
        assert m.total_work == pytest.approx(20.0 + 0.97)


class TestSharingBenefit:
    def test_single_cpu_sharing_wins_q6(self):
        # Figure 1: on one CPU, sharing the Q6 scan approaches ~1.8x.
        z = sharing_benefit(q6_group(48), "scan", 1)
        assert z > 1.5
        # ... and every added sharer helps on the way there.
        zs = [sharing_benefit(q6_group(m), "scan", 1) for m in range(2, 49)]
        assert zs == sorted(zs)

    def test_many_cpu_sharing_loses_q6(self):
        # Figure 1: on 32 CPUs sharing is strongly detrimental (~10x).
        z = sharing_benefit(q6_group(48), "scan", 32)
        assert z < 0.3

    def test_contention_favors_sharing(self):
        # Section 4.1.4: contention shrinks the effective processor
        # count, so there is less parallelism for sharing to give away.
        group = q6_group(32)
        zs = [
            sharing_benefit(group, "scan", 32, contention=kappa)
            for kappa in (1.0, 0.9, 0.7, 0.5, 0.3)
        ]
        assert zs == sorted(zs)
        assert zs[0] < 0.2

    def test_two_cpu_sharing_loses_q6(self):
        # Figure 1 shows sharing harmful for q6 for more than one core.
        z = sharing_benefit(q6_group(48), "scan", 2)
        assert z < 1.0

    def test_q6_one_client_no_benefit(self):
        z = sharing_benefit(q6_group(1), "scan", 1)
        assert z <= 1.0 + 1e-12

    def test_closed_flag_matches_open_for_identical_queries(self):
        group = q6_group(12)
        z_open = sharing_benefit(group, "scan", 8)
        z_closed = sharing_benefit(group, "scan", 8, closed_system=True)
        assert z_open == pytest.approx(z_closed)

    def test_zero_output_cost_one_cpu_never_loses(self):
        q = QuerySpec(chain(op("scan", 10.0, 0.0), op("agg", 1.0)), label="free")
        group = [q.relabeled(f"f{i}") for i in range(10)]
        assert sharing_benefit(group, "scan", 1) >= 1.0
