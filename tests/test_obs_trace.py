"""The flight recorder: conservation, determinism, zero-cost-disabled.

The three properties that make a trace trustworthy:

* **conservation** — per-processor compute-slice durations sum to the
  processor's ``busy_time`` exactly (same floats, same accrual order);
* **determinism** — two runs of the same plan serialize to
  byte-identical Chrome JSON (the tracer never reads wall time);
* **invisibility** — with the tracer detached (the default), simulated
  time and answers are unchanged on randomized schedules.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import demo_session, demo_trace_session
from repro.obs.trace import (
    TID_SCANS,
    TID_TASKS,
    Tracer,
    attach_tracer,
    validate_chrome_trace,
)
from repro.sim import CLOSED, Close, Compute, Get, Put, Simulator

costs = st.floats(min_value=0.01, max_value=10.0, allow_nan=False,
                  allow_infinity=False)


def _pipeline(sim, item_costs, capacity):
    q = sim.queue("q", capacity=capacity)
    received = []

    def producer():
        for i, c in enumerate(item_costs):
            yield Compute(c, io=c / 4)
            yield Put(q, i)
        yield Close(q)

    def consumer():
        while True:
            item = yield Get(q)
            if item is CLOSED:
                return
            yield Compute(0.1)
            received.append(item)

    sim.spawn(producer(), name="p")
    sim.spawn(consumer(), name="c")
    return received


# ----------------------------------------------------------------------
# conservation
# ----------------------------------------------------------------------


@given(
    st.lists(costs, min_size=1, max_size=15),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_compute_spans_conserve_busy_time(item_costs, processors):
    """Per-lane compute-span sums equal Processor.busy_time exactly —
    bit-for-bit, not approximately (same floats, same order)."""
    sim = Simulator(processors=processors)
    tracer = attach_tracer(sim)
    _pipeline(sim, item_costs, capacity=2)
    sim.run()
    by_lane = tracer.compute_time_by_lane()
    for proc in sim._processors:
        assert by_lane.get(proc.index, 0.0) == proc.busy_time


def test_compute_event_args_carry_cost_and_io():
    sim = Simulator(processors=1)
    tracer = attach_tracer(sim)

    def body():
        yield Compute(5.0, io=2.0)

    sim.spawn(body(), name="t")
    sim.run()
    (event,) = tracer.select(cat="compute")
    assert event.ph == "X"
    assert event.dur == 5.0
    assert dict(event.args) == {"cost": 5.0, "io": 2.0}


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def _traced_run():
    sim = Simulator(processors=2)
    tracer = attach_tracer(sim)
    _pipeline(sim, [1.0, 2.5, 0.5, 3.0], capacity=1)
    sim.run()
    return sim, tracer


def test_trace_json_is_byte_identical_across_runs():
    _, first = _traced_run()
    _, second = _traced_run()
    assert first.to_json() == second.to_json()


def test_shared_session_trace_is_byte_identical_across_runs():
    """The full stack — session, pool, elevator scans — stays
    deterministic, not just the bare simulator."""
    first = demo_trace_session(pages=8, queries=2)
    second = demo_trace_session(pages=8, queries=2)
    assert first.tracer.to_json() == second.tracer.to_json()


# ----------------------------------------------------------------------
# invisibility (zero cost disabled)
# ----------------------------------------------------------------------


@given(
    st.lists(costs, min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_disabled_tracer_changes_nothing(item_costs, processors, capacity):
    """Attached vs detached tracer: same clock, same answers."""
    plain = Simulator(processors=processors)
    plain_received = _pipeline(plain, item_costs, capacity)
    plain.run()

    traced = Simulator(processors=processors)
    attach_tracer(traced)
    traced_received = _pipeline(traced, item_costs, capacity)
    traced.run()

    assert traced.now == plain.now
    assert traced_received == plain_received
    assert [p.busy_time for p in traced._processors] == [
        p.busy_time for p in plain._processors
    ]


def test_session_tracer_changes_nothing():
    """The full stack too: a traced session ends on the same clock
    with the same answers as an untraced one."""
    plain = demo_session(pages=8, queries=2)
    traced = demo_trace_session(pages=8, queries=2)
    assert traced.now == plain.now
    plain_rows = plain.run(plain.table("lineitem", columns=["k"])).rows
    assert traced.run(traced.table("lineitem", columns=["k"])).rows == plain_rows
    assert traced.now == plain.now


# ----------------------------------------------------------------------
# lifecycle edges and queue accounting
# ----------------------------------------------------------------------


def test_lifecycle_events_recorded_in_order():
    sim = Simulator(processors=1)
    tracer = attach_tracer(sim)
    _pipeline(sim, [1.0], capacity=1)
    sim.run()
    names = [e.name for e in tracer.select(cat="task")]
    assert names[:2] == ["spawn", "spawn"]
    assert names.count("finish") == 2
    blocks = tracer.select(cat="queue", name="block")
    unblocks = tracer.select(cat="queue", name="unblock")
    assert blocks and len(unblocks) >= len(blocks) - 1


def test_queue_block_time_accrues_on_tasks():
    """The new Task.queue_block_time ledger measures Get/Put parking;
    the consumer of an empty queue must accrue it."""
    sim = Simulator(processors=2)
    _pipeline(sim, [4.0, 4.0], capacity=1)
    sim.run()
    consumer = next(t for t in sim.tasks if t.name == "c")
    assert consumer.queue_block_time > 0
    assert consumer.blocked_since is None


# ----------------------------------------------------------------------
# scan reconciliation and export schema
# ----------------------------------------------------------------------


def test_scan_events_reconcile_with_stats():
    """Elevator attach/split/merge/throttle events must agree exactly
    with the TableScanStats counters of the same run."""
    session = demo_trace_session(pages=16, queries=3)
    tracer = session.tracer
    (stats,) = session.scans.snapshot()
    assert tracer.count(cat="scan", name="attach") == stats.attaches
    assert tracer.count(cat="scan", name="split") == stats.splits
    assert tracer.count(cat="scan", name="merge") == stats.merges
    throttles = tracer.select(cat="scan", name="throttle")
    assert sum(dict(e.args)["wait"] for e in throttles) == stats.throttle_stall_cost
    issued = tracer.count(cat="scan", name="prefetch_issue")
    assert issued == stats.prefetch_issued
    for event in tracer.select(cat="scan"):
        assert event.tid == TID_SCANS


def test_chrome_export_is_valid_and_loadable():
    session = demo_trace_session(pages=8, queries=2)
    trace = session.tracer.to_chrome()
    assert validate_chrome_trace(trace) == []
    # Round-trips through JSON (what Perfetto actually loads).
    reloaded = json.loads(session.tracer.to_json())
    assert validate_chrome_trace(reloaded) == []
    assert reloaded["displayTimeUnit"] == "ms"
    names = {e["name"] for e in reloaded["traceEvents"]}
    assert {"process_name", "thread_name", "spawn", "finish"} <= names


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace({"nope": []}) != []
    broken = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 0,
                               "ts": 0.0}]}
    assert any("dur" in p for p in validate_chrome_trace(broken))


def test_timeline_renders_lanes_and_limits():
    sim = Simulator(processors=1)
    tracer = attach_tracer(sim)
    _pipeline(sim, [1.0, 2.0], capacity=1)
    sim.run()
    text = tracer.timeline(limit=3)
    assert "more events" in text
    assert "[task/tasks]" in text
    full = tracer.timeline()
    assert len(full.splitlines()) == len(tracer.events)
    assert tracer.select(name="spawn")[0].tid == TID_TASKS


def test_tracer_name_lane_labels_export():
    tracer = Tracer(clock=lambda: 0.0)
    tracer.name_lane(0, "worker")
    tracer.instant("x", "misc", tid=0)
    meta = [e for e in tracer.to_chrome()["traceEvents"]
            if e["name"] == "thread_name"]
    assert meta[0]["args"]["name"] == "worker"
