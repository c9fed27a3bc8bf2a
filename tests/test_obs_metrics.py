"""The unified metrics registry and the canonical stall table."""

import json

import pytest

from repro.db import Database, RuntimeConfig
from repro.engine.expressions import col, lt
from repro.obs.metrics import (
    MetricsRegistry,
    render_resources,
    render_stall_table,
    stall_breakdown,
)
from repro.storage import Catalog, DataType, Schema


def _session(preset="laptop", pages=8):
    catalog = Catalog()
    table = catalog.create("t", Schema([("k", DataType.INT)]))
    table.insert_many([(i,) for i in range(pages * 64)])
    return Database.open(catalog, RuntimeConfig.preset(preset))


# ----------------------------------------------------------------------
# the registry core
# ----------------------------------------------------------------------


def test_counters_gauges_and_sources():
    registry = MetricsRegistry()
    registry.inc("a.count")
    registry.inc("a.count", 4)
    registry.set("a.gauge", 7.5)
    registry.register("a.live", lambda: 42)
    snap = registry.snapshot()
    assert snap == {"a.count": 5, "a.gauge": 7.5, "a.live": 42}
    assert list(snap) == sorted(snap)


def test_register_group_families():
    registry = MetricsRegistry()
    registry.register_group(lambda: {"x.b": 2, "x.a": 1})
    assert list(registry.snapshot()) == ["x.a", "x.b"]


def test_delta_diffs_snapshots():
    before = {"a": 1.0, "b": 5.0}
    after = {"a": 3.0, "b": 5.0, "c": 2.0}
    assert MetricsRegistry.delta(before, after) == {"a": 2.0, "b": 0.0, "c": 2.0}


def test_to_json_and_render():
    registry = MetricsRegistry()
    registry.set("m.v", 1.25)
    assert json.loads(registry.to_json()) == {"m.v": 1.25}
    assert "m.v" in registry.render()
    assert MetricsRegistry().render() == "(no metrics registered)"


# ----------------------------------------------------------------------
# the canonical engine wiring
# ----------------------------------------------------------------------


def test_for_engine_registers_every_family():
    session = _session()
    result = session.run(session.table("t", columns=["k"]), label="probe")
    snap = session.metrics().snapshot()
    assert snap["sim.now"] == session.now
    assert snap["buffer.capacity"] == 256
    assert snap["buffer.misses"] > 0
    assert snap["memory.work_mem"] == 32
    assert snap["scan.t.pages_served"] > 0
    assert any(name.startswith("stage.") for name in snap)
    for category in ("cpu", "io", "drift_throttle", "queue_block"):
        assert f"stall.{category}" in snap
    # The result carries the batch-drain snapshot.
    assert result.metrics == snap


def test_spill_family_counts_external_sort_traffic():
    """An under-memory sort spills and the family records the traffic."""
    catalog = Catalog()
    table = catalog.create("t", Schema([("k", DataType.INT)]))
    table.insert_many([((i * 7919) % 4096,) for i in range(4096)])
    config = RuntimeConfig(work_mem=2, pool_pages=64, processors=2)
    session = Database.open(catalog, config)
    session.run(session.table("t", columns=["k"]).order_by("k"))
    snap = session.metrics().snapshot()
    assert snap["spill.pages_written"] > 0
    assert snap["spill.pages_read"] > 0


def test_snapshot_is_live_and_delta_isolates_batches():
    session = _session()
    query = session.table("t", columns=["k"])
    session.run(query, label="one")
    first = session.metrics().snapshot()
    session.run(session.table("t", columns=["k"]), label="two")
    second = session.metrics().snapshot()
    delta = MetricsRegistry.delta(first, second)
    assert delta["sim.now"] > 0
    assert delta["buffer.capacity"] == 0


def test_scope_cuts_stage_rows_and_nothing_else():
    """``snapshot(scope=op_ids)`` is the full snapshot minus the
    ``stage.<op_id>.*`` rows of other operators — what a result keeps
    of its batch. Scalars and the stall totals are untouched."""
    session = _session()
    first = session.run(session.table("t", columns=["k"]).order_by("k"))
    second = session.run(session.table("t", columns=["k"]).where(lt(col("k"), 9)))
    full = session.metrics().snapshot()
    ops = {name.split(".")[1] for name in full if name.startswith("stage.")}
    kept = {name.split(".")[1] for name in second.metrics if name.startswith("stage.")}
    assert kept < ops  # the sort ran in the first batch only
    assert second.metrics == session.metrics().snapshot(scope=kept)
    assert second.metrics == {
        name: value
        for name, value in full.items()
        if not name.startswith("stage.") or name.split(".")[1] in kept
    }
    assert first.metrics["sim.tasks"] < second.metrics["sim.tasks"]  # counters accumulate
    assert session.metrics().snapshot(scope=ops) == full


def test_scan_stall_reconciles_with_stage_io():
    """The stall.* totals come from the task ledger; io is bounded by
    busy time (it is busy time's overlapped component)."""
    session = _session()
    session.run(session.table("t", columns=["k"]))
    snap = session.metrics().snapshot()
    breakdown = stall_breakdown(snap)
    assert set(breakdown) == {"cpu", "io", "drift_throttle", "queue_block"}
    assert breakdown["cpu"] >= 0
    assert breakdown["io"] >= 0


# ----------------------------------------------------------------------
# the stall table
# ----------------------------------------------------------------------


def test_render_stall_table_shares_sum_to_one():
    snap = {"stall.cpu": 75.0, "stall.io": 25.0,
            "stall.drift_throttle": 0.0, "stall.queue_block": 0.0}
    table = render_stall_table(snap)
    lines = table.splitlines()
    assert lines[0].split() == ["category", "time", "share"]
    assert "75.0%" in table and "25.0%" in table
    assert "#" in lines[1] or "#" in lines[2]


def test_render_stall_table_handles_empty():
    table = render_stall_table({})
    assert "0.0%" in table


def test_query_result_render_includes_stall_table():
    session = _session()
    result = session.run(session.table("t", columns=["k"]), label="probe")
    text = result.render()
    assert "category" in text and "queue_block" in text
    assert result.stalls == stall_breakdown(result.metrics)


def test_render_stall_table_spill_footer():
    """Snapshots carrying the spill.* family gain a read-back footer;
    stall-only snapshots render exactly as before."""
    stalls = {"stall.cpu": 75.0, "stall.io": 25.0,
              "stall.drift_throttle": 0.0, "stall.queue_block": 0.0}
    plain = render_stall_table(stalls)
    assert "spill" not in plain
    with_spill = render_stall_table({
        **stalls,
        "spill.pages_written": 12.0,
        "spill.pages_read": 12.0,
        "spill.read_stall": 30.0,
        "spill.read_overlapped": 10.0,
    })
    lines = with_spill.splitlines()
    assert lines[:5] == plain.splitlines()
    assert "spill read-back" in lines[5]
    assert "25.0% overlapped" in lines[5]
    assert "12w/12r pages" in lines[5]


def test_render_resources_lines_follow_the_families_present():
    """One line per wired layer — pool, memory, each table's elevator —
    then the stage table, busiest first; absent families, no line."""
    pool = {
        "buffer.capacity": 8, "buffer.resident": 5, "buffer.pinned": 1,
        "buffer.hits": 30, "buffer.misses": 10, "buffer.hit_rate": 0.75,
        "buffer.evictions": 2, "spill.pages_written": 4, "spill.pages_read": 3,
        "spill.prefetch_issued": 0, "spill.read_stall": 0.0, "spill.read_overlapped": 0.0,
    }
    assert render_resources(pool) == (
        "buffer pool: 5/8 pages resident (1 pinned), 30 hits / 10 misses "
        "(75.0% hit rate), 2 evictions, spill 4 written / 3 read"
    )
    prefetched = {**pool, "spill.prefetch_issued": 6, "spill.read_stall": 40.0,
                  "spill.read_overlapped": 80.0}
    assert render_resources(prefetched).endswith(
        "; spill read-back: 6 prefetches, stall 40 / overlapped 80"
    )
    scan = {
        "scan.t.pages_served": 12, "scan.t.physical_reads": 4, "scan.t.attaches": 3,
        "scan.t.max_attach_depth": 3, "scan.t.prefetch_issued": 2,
        "scan.t.prefetch_wasted": 0, "scan.t.io_stall": 100.0, "scan.t.io_overlapped": 60.0,
        "scan.t.max_lag": 0, "scan.t.throttle_stall": 0.0, "scan.t.splits": 0,
        "scan.t.merges": 0, "scan.t.groups": 1,
    }
    memory = {"memory.work_mem": 16, "memory.reserved": 0, "memory.in_use": 0,
              "memory.high_water": 9, "memory.overcommits": 1}
    stages = {
        "stage.agg.instances": 3, "stage.agg.busy": 10.0,
        "stage.t_scan.instances": 1, "stage.t_scan.busy": 30.0,
    }
    lines = render_resources({**stages, **scan, **memory, **pool}).splitlines()
    assert lines[0].startswith("buffer pool: ")
    assert lines[1] == "work_mem 16 pages: reserved 0, in use 0, high-water 9, overcommits 1"
    assert lines[2] == (
        "scan[t]: 3 attaches (depth <= 3), 12 pages served / 4 physical reads (3.00x), "
        "prefetch 2 issued (0 wasted), io stall 100 / overlapped 60"
    )
    assert lines[3].split() == ["stage", "inst", "busy", "share"]
    assert [line.split()[:3] for line in lines[4:]] == [
        ["t_scan", "1", "30.0"], ["agg", "3", "10.0"],
    ]
    assert lines[4].count("#") == 30 and lines[5].count("#") == 10
    drifted = {**scan, "scan.t.max_lag": 7, "scan.t.throttle_stall": 55.0,
               "scan.t.splits": 2, "scan.t.merges": 1}
    assert render_resources(drifted).endswith(
        "; drift lag <= 7, throttle stall 55, 2 splits / 1 merges"
    )


def test_render_resources_reads_a_live_governed_session():
    session = _session()
    result = session.run(session.table("t", columns=["k"]).order_by("k"))
    text = render_resources(result.metrics)
    for start in ("buffer pool: ", "work_mem ", "scan[t]: "):
        assert sum(line.startswith(start) for line in text.splitlines()) == 1
    assert "scan@" in text


@pytest.mark.parametrize("preset", ["unbounded", "cmp32"])
def test_for_engine_tolerates_absent_layers(preset):
    """Presets without scans (or any storage at all) still snapshot."""
    session = _session(preset=preset)
    session.run(session.table("t", columns=["k"]))
    snap = session.metrics().snapshot()
    assert "sim.now" in snap
    assert not any(name.startswith("scan.") for name in snap)
    if preset == "unbounded":
        assert not any(name.startswith("buffer.") for name in snap)
