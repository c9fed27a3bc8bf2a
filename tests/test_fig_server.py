"""The open-system serving experiment meets its acceptance criteria.

One full sweep per module: 2 machines x 5 arrival rates x 3 sharing
policies, each cell a fresh server over the shared catalog.
"""

import pytest

from repro.experiments import fig_server

# Every test reads the module's sweep, whose overload cells stop at the
# horizon with a backlog still running.
pytestmark = pytest.mark.in_flight


@pytest.fixture(scope="module")
def result():
    return fig_server.run()


class TestShape:
    def test_every_cell_present(self, result):
        assert len(result.cells) == (
            len(result.rate_multiples)
            * len(result.processor_counts)
            * 3
        )
        assert result.service_time > 0

    def test_unknown_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell("sometimes", 2, 1.0)

    def test_arrival_counts_match_across_policies(self, result):
        """Same seed, same rate: every policy faces the identical
        arrival stream."""
        for n in result.processor_counts:
            for rate in result.rate_multiples:
                counts = {
                    result.cell(p, n, rate).submitted
                    for p in ("always", "model", "never")
                }
                assert len(counts) == 1


class TestFewCores:
    """2 processors: straggler factory at light load, capacity win
    under overload — the flip lives on this machine."""

    def test_light_load_sharing_is_a_straggler_factory(self, result):
        for rate in (0.5, 1.0):
            always = result.cell("always", 2, rate)
            never = result.cell("never", 2, rate)
            # Stable: goodput is set by arrivals, not by the policy...
            assert always.goodput == pytest.approx(never.goodput, rel=0.05)
            # ...so convoying latecomers buys nothing and costs tail.
            assert always.p99 > never.p99

    def test_overload_flips_sharing_into_a_goodput_win(self, result):
        always = result.cell("always", 2, 8.0)
        never = result.cell("never", 2, 8.0)
        assert always.goodput > 2 * never.goodput
        assert always.max_group_size > 8
        assert never.max_group_size == 1

    def test_crossover_rate_is_measured_not_assumed(self, result):
        crossover = result.crossover_rate(2)
        assert crossover is not None
        # Sharing wins only past saturation: the flip sits strictly
        # inside the sweep, above the stable rates.
        assert 1.0 < crossover < max(result.rate_multiples)

    def test_model_tracks_the_winning_envelope(self, result):
        for rate in result.rate_multiples:
            model = result.cell("model", 2, rate)
            never = result.cell("never", 2, rate)
            # Never worse than never-share on goodput...
            assert model.goodput >= 0.95 * never.goodput
        # ...and past the flip it finds the sharing capacity win.
        model = result.cell("model", 2, 4.0)
        never = result.cell("never", 2, 4.0)
        assert model.goodput > 1.5 * never.goodput
        assert model.max_group_size > 1

    def test_model_avoids_the_light_load_convoy(self, result):
        for rate in (0.5, 1.0):
            model = result.cell("model", 2, rate)
            always = result.cell("always", 2, rate)
            assert model.p99 < always.p99


class TestManyCores:
    """8 processors: Figure 2's collapse restated on the load axis —
    sharing never wins, and the model knows it."""

    def test_sharing_never_wins_goodput(self, result):
        assert result.crossover_rate(8) is None

    def test_parallelism_absorbs_the_overload_solo(self, result):
        always = result.cell("always", 8, 8.0)
        never = result.cell("never", 8, 8.0)
        assert never.goodput > 2 * always.goodput

    def test_model_matches_never_share_everywhere(self, result):
        for rate in result.rate_multiples:
            model = result.cell("model", 8, rate)
            never = result.cell("never", 8, rate)
            assert model.goodput == pytest.approx(never.goodput, rel=0.05)
            assert model.max_group_size == 1


class TestRender:
    def test_render_states_both_verdicts(self, result):
        text = result.render()
        assert "sharing wins goodput from rate" in text
        assert "sharing never wins goodput on this machine" in text
        assert "2 processors" in text and "8 processors" in text
