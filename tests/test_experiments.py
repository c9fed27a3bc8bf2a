"""Integration tests for the experiment drivers (reduced scale)."""

import pytest

from repro.experiments import fig1, fig2, fig4, fig5, fig6, section4_example
from repro.experiments.common import (
    SpeedupSeries,
    batch_speedup,
    lcg,
    pick,
    replica_catalog,
    replica_names,
    shared_catalog,
    speedup_series,
)
from repro.experiments.report import block, format_table, series_table
from repro.tpch.queries import build

SCALE = 0.0005
SEED = 5


@pytest.fixture(scope="module")
def catalog():
    return shared_catalog(SCALE, SEED)


class TestCommon:
    def test_catalog_cache_returns_same_object(self):
        assert shared_catalog(SCALE, SEED) is shared_catalog(SCALE, SEED)

    def test_batch_speedup_one_client_is_unity(self, catalog):
        query = build("q6", catalog)
        assert batch_speedup(catalog, query, 1, 4) == pytest.approx(1.0)

    def test_speedup_series_shape(self, catalog):
        series = speedup_series(catalog, "q6", 1, clients=(1, 4))
        assert series.clients == (1, 4)
        assert len(series.speedups) == 2
        assert series.max_speedup() >= series.min_speedup()


class TestScaffold:
    def test_lcg_is_the_park_miller_stream(self):
        # The states every synthetic figure table is drawn from: a
        # change here silently changes every figure's data.
        assert lcg(2007, 5) == [96879897, 1417608568, 1964257920, 996073976, 1475522813]

    def test_replicas_equal_the_common_table(self):
        catalog = replica_catalog("t", 50, 3, seed=7)
        names = replica_names("t", 3)
        assert names == ["t__0", "t__1", "t__2"]
        common = catalog.table("t")
        assert len(common.column("k")) == 50
        for name in names:
            for column in ("k", "v"):
                copy = catalog.table(name).column(column)
                original = common.column(column)
                assert copy == original
                assert [type(value) for value in copy] == [type(value) for value in original]
        assert {type(value) for value in common.column("k")} == {int}
        assert {type(value) for value in common.column("v")} == {float}

    def test_pick_returns_the_first_match(self):
        items = [
            SpeedupSeries("q6", 1, (1,), (1.0,)),
            SpeedupSeries("q6", 8, (1,), (0.5,)),
            SpeedupSeries("q1", 8, (1,), (0.7,)),
        ]
        assert pick(items, processors=8) is items[1]
        assert pick(items, query="q1", processors=8) is items[2]
        with pytest.raises(KeyError):
            pick(items, query="q4")

    def test_block_prints_title_table_then_claim_lines(self):
        text = block(
            "Title",
            [("a", lambda row: row[0]), ("b", lambda row: row[1])],
            [(1, 2.5), (30, "x")],
            [("first", True), ("second", 2)],
            [("third", False)],
        )
        assert text.splitlines() == [
            "Title",
            " a      b",
            "--  -----",
            " 1  2.500",
            "30      x",
            "  first: True;  second: 2",
            "  third: False",
        ]


class TestReport:
    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [[1, 2.5], [30, 4.125]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "4.125" in lines[3]

    def test_series_table_headers(self):
        series = SpeedupSeries("q6", 8, (1, 2), (1.0, 0.9))
        text = series_table([series])
        assert "q6@8cpu" in text

    def test_series_table_empty(self):
        assert series_table([]) == "(no data)"


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1.run(clients=(1, 8, 24), processor_counts=(1, 32),
                        scale_factor=SCALE, seed=SEED)

    def test_one_cpu_line_beneficial(self, result):
        assert result.line(1).as_mapping()[24] > 1.5

    def test_32_cpu_line_harmful(self, result):
        assert result.line(32).as_mapping()[24] < 0.3

    def test_unknown_processor_count(self, result):
        with pytest.raises(KeyError):
            result.line(7)

    def test_render_contains_series(self, result):
        assert "q6@1cpu" in result.render()


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run(clients=(2, 16), processor_counts=(1, 32),
                        scale_factor=SCALE, seed=SEED)

    def test_scan_vs_join_contrast(self, result):
        for n in (1, 32):
            assert result.line("q4", n).max_speedup() > (
                result.line("q6", n).max_speedup()
            )

    def test_scan_heavy_caps_then_collapses(self, result):
        for name in ("q1", "q6"):
            assert 1.2 < result.line(name, 1).as_mapping()[16] < 2.5
            assert result.line(name, 32).as_mapping()[16] < 0.3

    def test_join_heavy_grows(self, result):
        for name in ("q4", "q13"):
            series = result.line(name, 1)
            assert series.speedups[-1] > series.speedups[0]
            assert series.speedups[-1] > 5.0

    def test_render_has_both_panels(self, result):
        text = result.render()
        assert "scan-heavy" in text and "join-heavy" in text


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run(clients=range(1, 21))

    def test_panels_present(self, result):
        assert result.processors.parameter == "processors"
        assert result.output_cost.parameter == "output_cost"
        assert result.work_below.parameter == "stages_below_pivot"

    def test_render(self, result):
        text = result.render()
        assert "Figure 4 (left)" in text
        assert "s=0.25" in text
        assert "(28%)" in text and "(98%)" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(clients=(8, 32), processor_counts=(1, 32),
                        queries=("q6", "q4"), scale_factor=SCALE, seed=SEED)

    def test_points_cover_grid(self, result):
        assert len(result.points) == 2 * 2 * 2

    def test_errors_first_order(self, result):
        assert result.avg_error("scan-heavy") < 0.35
        assert result.avg_error("join-heavy") < 0.45

    def test_decisions_mostly_agree(self, result):
        assert result.decision_accuracy() >= 0.75

    def test_scan_heavy_half_is_tight_and_says_dont_share_on_32(self, result):
        assert result.avg_error("scan-heavy") < 0.25
        for point in result.points:
            if point.kind == "scan-heavy" and point.processors == 32:
                assert point.predicted < 1.0 and point.measured < 1.0

    def test_render_summary(self, result):
        text = result.render()
        assert "paper: 22% / 5.7%" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run(fractions=(0.0, 1.0), processor_counts=(2, 32),
                        n_clients=8, warmup=50_000.0, window=200_000.0,
                        scale_factor=SCALE, seed=SEED)

    def test_sharing_always_helps_on_two_processors(self, result):
        never = result.throughput("never", 2, 1.0)
        assert result.throughput("always", 2, 1.0) > 2.0 * never
        assert result.throughput("model", 2, 1.0) > 2.0 * never

    def test_always_collapses_on_scan_mix(self, result):
        assert result.throughput("always", 32, 0.0) < (
            0.5 * result.throughput("never", 32, 0.0)
        )
        # The paper's headline: model-guided averages ~2.5x over
        # always-share on the CMP.
        assert result.average_ratio(32, "model", "always") > 1.8

    def test_model_never_materially_worst(self, result):
        for fraction in (0.0, 1.0):
            model = result.throughput("model", 32, fraction)
            never = result.throughput("never", 32, fraction)
            always = result.throughput("always", 32, fraction)
            assert model >= 0.85 * max(never, always)

    def test_render(self, result):
        assert "32 processors" in result.render()

    def test_unknown_cell(self, result):
        with pytest.raises(KeyError):
            result.throughput("model", 32, 0.33)


class TestSection4Example:
    def test_matches_paper_closed_forms(self):
        result = section4_example.run()
        assert result.p_max == pytest.approx(20.0)
        for m, n, ours_u, paper_u, ours_s, paper_s in result.rows:
            # The paper rounds u' to 21; exact is 20.97 — allow 1%.
            assert ours_u == pytest.approx(paper_u, rel=0.01)
            assert ours_s == pytest.approx(paper_s, rel=0.01)
