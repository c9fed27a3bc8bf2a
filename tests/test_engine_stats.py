"""Tests for the per-operator stage rows (repro.engine.stats)."""

import pytest

from repro.engine import Engine, stage_rows
from repro.obs.metrics import MetricsRegistry, render_resources
from repro.sim import Simulator
from repro.tpch.generator import generate
from repro.tpch.queries import build


@pytest.fixture(scope="module")
def run():
    catalog = generate(scale_factor=0.0005, seed=51)
    query = build("q6", catalog)
    sim = Simulator(processors=4)
    engine = Engine(catalog, sim)
    group = engine.execute_group(
        [query.plan] * 3, pivot_op_id=query.pivot,
        labels=["a", "b", "c"],
    )
    sim.run()
    return sim, engine, group, query


class TestStageReport:
    def test_covers_all_operators(self, run):
        sim, _, _, query = run
        assert {op_id for op_id, _ in stage_rows(sim)} == {
            node.op_id for node in query.plan.walk()
        }

    def test_bottleneck_is_shared_scan(self, run):
        sim, _, _, query = run
        assert stage_rows(sim)[0][0] == query.pivot

    def test_shares_sum_to_one(self, run):
        sim, engine, _, _ = run
        # Busy time is cpu + io, so the stall totals cover the stages.
        snapshot = MetricsRegistry.for_engine(engine).snapshot()
        busy = sum(row[1] for _, row in stage_rows(sim))
        assert snapshot["stall.cpu"] + snapshot["stall.io"] == pytest.approx(busy)

    def test_instance_counts(self, run):
        sim, _, _, query = run
        rows = dict(stage_rows(sim))
        # The shared scan ran once; the aggregate once per member.
        assert rows[query.pivot][0] == 1
        assert rows["q6_agg"][0] == 3

    def test_sinks_excluded_by_default(self, run):
        sim, _, _, _ = run
        assert any(task.name.endswith("/sink") for task in sim.tasks)
        assert all(op_id != "sink" for op_id, _ in stage_rows(sim))

    def test_group_task_source(self, run):
        sim, engine, group, query = run
        rows = dict(stage_rows(engine.group_tasks[group.group_id]))
        assert rows[query.pivot][1] > 0
        # The group is the whole run: a fold from scratch over its
        # tasks equals the simulator's resumable one.
        assert rows == dict(stage_rows(sim))

    def test_render_contains_bars(self, run):
        _, engine, _, _ = run
        text = render_resources(MetricsRegistry.for_engine(engine).snapshot())
        assert "#" in text
        assert "q6_scan" in text

    def test_unknown_stage(self, run):
        _, engine, _, _ = run
        registry = MetricsRegistry.for_engine(engine)
        full, scoped = registry.snapshot(), registry.snapshot(scope={"ghost"})
        # An operator that never ran has no rows; scoping to it keeps
        # every scalar and total and drops the stage rows.
        assert "stage.ghost.busy" not in full
        assert scoped == {k: v for k, v in full.items() if not k.startswith("stage.")}

    def test_empty_report(self):
        assert stage_rows([]) == []
        assert render_resources({}) == ""
