"""The memory-governance experiment meets its acceptance criteria."""

import pytest

from repro.experiments import fig_mem


@pytest.fixture(scope="module")
def result():
    # The CLI's --quick configuration: smaller sweep, 8 tenants on 4
    # processors (the m/n ratio that makes the flip visible).
    return fig_mem.run(work_mems=(16, 4), tenants=8, processors=4)


class TestWorkMemSweep:
    def test_degrades_gracefully(self, result):
        assert result.answers_agree()
        assert result.spill_is_monotone()

    def test_tight_budget_spills(self, result):
        tight = min(result.sweep, key=lambda p: p.work_mem)
        ample = max(result.sweep, key=lambda p: p.work_mem)
        assert tight.spill_pages_written > ample.spill_pages_written
        assert tight.makespan > ample.makespan

    def test_high_water_respects_budget_without_overcommit(self, result):
        for point in result.sweep:
            if point.overcommits == 0:
                assert point.mem_high_water <= point.work_mem


class TestSharingFlip:
    def test_decision_flips_on_cache_temperature(self, result):
        assert result.decision_flipped()

    def test_model_matches_measurement(self, result):
        """The predicted Z and the measured unshared/shared ratio land
        on the same side of 1 in both configurations."""
        for config in result.flips:
            assert (config.decision.benefit > 1.0) == (
                config.measured_benefit > 1.0
            )

    def test_cold_counters_show_io_amortization(self, result):
        cold = result.flip("cold")
        assert cold.unshared_metrics["buffer.misses"] > (
            cold.shared_metrics["buffer.misses"]
        )

    def test_warm_runs_all_hit(self, result):
        warm = result.flip("warm")
        assert warm.unshared_metrics["buffer.misses"] == 0
        assert warm.shared_metrics["buffer.misses"] == 0

    def test_render_reports_counters(self, result):
        text = result.render()
        assert "spill" in text
        assert "SHARE" in text
        assert "decision flipped cold->warm: True" in text
