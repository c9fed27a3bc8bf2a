"""Staged-engine-vs-oracle parity: the batch protocol's invariant.

The staged engine has one (columnar) implementation of each operator.
Its contract has two halves, each pinned by something that shares no
code with the stages:

* **rows** — per operator, at any batch size (aligned, ragged,
  degenerate 1), under every preset (including ``laptop``'s elevator
  scans and I/O charges), the result is bit-identical to the naive
  executor's (:func:`~repro.engine.reference.execute_reference`).
  Hypothesis drives the data. A fresh session's serial scan emits in
  storage order, so even the plans with no ORDER BY match the oracle
  row for row.
* **clock** — the simulated time of every plan x preset x batch size on
  a seeded catalog is bit-identical to ``golden_sim_times.json``,
  recorded before the row-at-a-time stage path (whose clock the
  columnar path had been pinned to) was deleted. Those plans sort 200
  rows under grants that never cut a run, so the same file also pins
  the *spilling* sort (``spill_sort/...``: clock, run and merge-pass
  counts, spill pages, pool evictions, at grants of 1-16 pages) and a
  dop-4 aggregate through the ordered-merge gather
  (``ordered_merge/...``), recorded before the merge went
  page-at-a-time, and the eight scenarios of the retired smoke-bench
  trajectory (``trajectory/...``: engine, elevator scans, external
  sort, drift throttle, traced and untraced facade, dop-4 aggregate,
  open-system server), each built as its bench built it. A deliberate
  model change re-records everything with
  ``python tests/test_batch_parity.py``.
"""

import json
import random
from functools import cache, partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, QueryBuilder, RuntimeConfig
from repro.engine import (
    CostModel,
    Engine,
    MemoryBroker,
    aggregate,
    scan,
    sort,
)
from repro.engine.plan import AggSpec
from repro.engine.expressions import add, col, ge, lt, mul
from repro.engine.memory import grant_notes
from repro.engine.reference import execute_reference
from repro.experiments.common import shared_catalog
from repro.policies import AlwaysShare
from repro.server import QueueDepthBound, Server
from repro.sim.simulator import Simulator
from repro.storage import BufferPool, Catalog, DataType, ScanShareManager, Schema
from repro.tpch.queries import build
from repro.workload import WorkloadMix

PRESETS = ("unbounded", "cmp32", "laptop")

# Aligned (64 = every preset's page_rows), ragged, degenerate, and
# "inherit" (None): the geometries the emitter's flush logic branches
# on.
BATCH_SIZES = (None, 1, 7, 64)

GOLDEN = Path(__file__).with_name("golden_sim_times.json")
GOLDEN_SEED = 2007
SHARED_GROUP_MEMBERS = 3

ROWS = st.lists(
    st.tuples(
        st.integers(-50, 50),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=150,
)

SIDE_ROWS = st.lists(
    st.tuples(
        st.integers(-20, 20),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=60,
)

# One plan per operator (scan, filter+project+limit, both aggregate key
# shapes, sort, the three joins), over tables t(k, v) and s(sk, sv).
PLANS = {
    "fused_scan": lambda c: (
        QueryBuilder(c, "t")
        .where(lt(col("k"), 10))
        .select(("kv", mul(col("v"), add(col("k"), 1)), DataType.FLOAT))
    ),
    "filter_project_limit": lambda c: (
        QueryBuilder(c, "t")
        .filter(ge(col("k"), 0))
        .project([("w", add(col("v"), col("k")), DataType.FLOAT)])
        .limit(17)
    ),
    "aggregate": lambda c: (
        QueryBuilder(c, "t")
        .agg(
            AggSpec("sum", "total", col("v")),
            AggSpec("count", "n"),
            AggSpec("avg", "mean", col("v")),
            by=("k",),
        )
    ),
    "scalar_aggregate": lambda c: (
        QueryBuilder(c, "t")
        .agg(
            AggSpec("min", "lo", col("v")),
            AggSpec("max", "hi", add(col("v"), col("k"))),
            AggSpec("count", "n", col("k")),
        )
    ),
    "sort": lambda c: QueryBuilder(c, "t").order_by(("v", False), "k"),
    "hash_join": lambda c: (
        QueryBuilder(c, "t")
        .hash_join(QueryBuilder(c, "s"), build_key="sk", probe_key="k")
    ),
    "merge_join": lambda c: (
        QueryBuilder(c, "t")
        .order_by("k")
        .merge_join(
            QueryBuilder(c, "s").order_by("sk"),
            left_key="k", right_key="sk",
        )
    ),
    "nested_loop_join": lambda c: (
        QueryBuilder(c, "t")
        .nl_join(QueryBuilder(c, "s"), lt(col("k"), col("sk")))
    ),
}


def _catalog(rows, side_rows=()):
    catalog = Catalog()
    table = catalog.create(
        "t", Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    )
    table.insert_many(rows)
    side = catalog.create(
        "s", Schema([("sk", DataType.INT), ("sv", DataType.FLOAT)])
    )
    side.insert_many(side_rows)
    return catalog


def _session(catalog, preset, batch_size):
    config = RuntimeConfig.preset(preset).with_(batch_size=batch_size)
    return Database.open(catalog, config)


def _run_plan(catalog, name, preset, batch_size):
    """Rows and final clock of one plan in a fresh session."""
    session = _session(catalog, preset, batch_size)
    return session.run(PLANS[name](catalog)).rows, session.now


def _shared_query(catalog):
    return QueryBuilder(catalog, "t").where(ge(col("k"), -10))


def _run_shared_group(catalog, preset, batch_size, members):
    """A forced sharing group multiplexes batches through the pivot's
    multi-consumer emitter: each member's rows, and the final clock."""
    session = _session(catalog, preset, batch_size)
    for i in range(members):
        session.submit(_shared_query(catalog), label=f"m{i}", share=True)
    return [r.rows for r in session.run_all()], session.now


def assert_matches_oracle(name, rows, preset, batch_size, side_rows=()):
    catalog = _catalog(rows, side_rows)
    got, _ = _run_plan(catalog, name, preset, batch_size)
    expected = execute_reference(PLANS[name](catalog).plan(), catalog)
    # repr-compare: bit identity for floats (0.0 vs -0.0, exact
    # mantissas), not just ==.
    assert repr(got) == repr(expected)


GEOMETRIES = [
    pytest.param(preset, batch, id=f"{preset}-b{batch}")
    for preset in PRESETS
    for batch in BATCH_SIZES
]


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_fused_scan_parity(preset, batch, rows):
    assert_matches_oracle("fused_scan", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_filter_project_limit_parity(preset, batch, rows):
    assert_matches_oracle("filter_project_limit", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_aggregate_parity(preset, batch, rows):
    assert_matches_oracle("aggregate", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_scalar_aggregate_parity(preset, batch, rows):
    assert_matches_oracle("scalar_aggregate", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_sort_parity(preset, batch, rows):
    assert_matches_oracle("sort", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=6, deadline=None)
@given(rows=ROWS, side=SIDE_ROWS)
def test_hash_join_parity(preset, batch, rows, side):
    assert_matches_oracle("hash_join", rows, preset, batch, side_rows=side)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=6, deadline=None)
@given(rows=ROWS, side=SIDE_ROWS)
def test_merge_join_parity(preset, batch, rows, side):
    assert_matches_oracle("merge_join", rows, preset, batch, side_rows=side)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=4, deadline=None)
@given(rows=ROWS, side=SIDE_ROWS)
def test_nested_loop_join_parity(preset, batch, rows, side):
    assert_matches_oracle("nested_loop_join", rows, preset, batch, side_rows=side)


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=6, deadline=None)
@given(rows=ROWS, members=st.integers(2, 4))
def test_shared_group_parity(preset, rows, members):
    catalog = _catalog(rows)
    got, _ = _run_shared_group(catalog, preset, None, members)
    solo = execute_reference(_shared_query(catalog).plan(), catalog)
    assert repr(got) == repr([solo] * members)


# -- the clock half: golden simulated times ---------------------------------


def _golden_catalog():
    rng = random.Random(GOLDEN_SEED)
    rows = [(rng.randint(-50, 50), rng.uniform(-1e6, 1e6)) for _ in range(200)]
    side = [(rng.randint(-20, 20), rng.uniform(-1e3, 1e3)) for _ in range(60)]
    return _catalog(rows, side)


def golden_sim_times():
    """``plan/preset/b<batch>`` -> ``float.hex`` of the final clock."""
    catalog = _golden_catalog()
    times = {}
    for preset in PRESETS:
        for batch in BATCH_SIZES:
            for name in PLANS:
                _, now = _run_plan(catalog, name, preset, batch)
                times[f"{name}/{preset}/b{batch}"] = float(now).hex()
            _, now = _run_shared_group(catalog, preset, batch, SHARED_GROUP_MEMBERS)
            times[f"shared_group/{preset}/b{batch}"] = float(now).hex()
    return times


def test_golden_sim_times():
    golden = json.loads(GOLDEN.read_text())
    assert golden_sim_times() == {
        key: value for key, value in golden.items() if key not in NAMED_CASES
    }


# -- the clock half, spilling: external sort and ordered-merge gather -------
#
# Which row lands in which run decides run counts, page counts and merge
# passes; where each spill page is written and read back against the
# evicting pool decides the stalls. Every entry therefore records the
# counts beside the clock: a host-side rewrite of the sort must move
# none of them.

SPILL_COSTS = CostModel(io_page=100.0, spill_page=120.0)
SPILL_PAGE_ROWS = 16
SPILL_POOL_PAGES = 24
SPILL_ROWS = 3000

SPILL_KEY_SHAPES = {
    "int_asc_float_desc": [("g", True), ("v", False)],
    "str_desc_int_asc": [("s", False), ("k", True)],
    "heavy_tie": [("g", True)],
}


def _entry(sim_time, **counts):
    """A named golden entry: the clock as ``float.hex``, and beside it
    the run's counts — ints as they are, floats as hex too."""
    entry = {"sim_time": float(sim_time).hex()}
    entry.update(
        (name, value.hex() if isinstance(value, float) else value)
        for name, value in counts.items()
    )
    return entry


def _engine_run(catalog, processors, plans, dop=1, **wiring):
    """Launch ``{label: plan}`` together on a hand-wired engine and run
    it dry; returns the simulator and the engine."""
    sim = Simulator(processors=processors)
    engine = Engine(catalog, sim, **wiring)
    for label, plan in plans.items():
        engine.execute(plan, label, dop=dop)
    sim.run()
    return sim, engine


@cache
def _spill_catalog():
    rng = random.Random(GOLDEN_SEED)
    catalog = Catalog()
    schema = Schema(
        [
            ("g", DataType.INT),
            ("s", DataType.STR),
            ("k", DataType.INT),
            ("v", DataType.FLOAT),
        ]
    )
    # v is rounded so the descending float key has duplicates: ties on
    # the whole key are broken by arrival order, across runs.
    catalog.create("t", schema).insert_many(
        (
            rng.randrange(37),
            f"name{rng.randrange(11):02d}",
            i,
            round(rng.uniform(-1e3, 1e3), 1),
        )
        for i in range(SPILL_ROWS)
    )
    return catalog


def _spill_sort_entry(shape, work_mem, prefetch):
    """One governed sort through a raw engine on a 24-page pool."""
    catalog = _spill_catalog()
    plan = sort(
        scan(catalog, "t", columns=["g", "s", "k", "v"], op_id="s"),
        SPILL_KEY_SHAPES[shape],
        op_id="big_sort",
    )
    sim, engine = _engine_run(
        catalog,
        4,
        {"q": plan},
        costs=SPILL_COSTS,
        page_rows=SPILL_PAGE_ROWS,
        buffer_pool=BufferPool(SPILL_POOL_PAGES),
        memory=MemoryBroker(work_mem),
        spill_prefetch_depth=prefetch,
    )
    notes = grant_notes(engine.memory.grants(), "big_sort")
    return _entry(
        sim.now,
        sort_runs=notes["sort_runs"],
        merge_passes=notes["merge_passes"],
        spilled_pages=notes["spilled_pages"],
        evictions=engine.pool.stats.evictions,
    )


def _ordered_merge_entry():
    """A dop-4 aggregate: four partition streams of ~100 groups each,
    cut into ragged 7-row batches, interleaved by ``ordered_merge``."""
    catalog = _spill_catalog()
    config = RuntimeConfig(
        work_mem=4,
        pool_pages=SPILL_POOL_PAGES,
        page_rows=SPILL_PAGE_ROWS,
        batch_size=7,
        processors=4,
    )
    session = Database.open(catalog, config)
    query = (
        QueryBuilder(catalog, "t")
        .agg(AggSpec("sum", "total", col("v")), AggSpec("count", "n"), by=("g", "s"))
        .parallel(4)
    )
    result = session.run(query)
    return _entry(
        session.now,
        rows=len(result.rows),
        spill_pages_written=result.metrics["spill.pages_written"],
        evictions=result.metrics["buffer.evictions"],
    )


# key -> recorder(): every golden entry outside the plan x preset x
# batch grid of golden_sim_times().
NAMED_CASES = {
    f"spill_sort/{shape}/wm{work_mem}/pf{prefetch}": partial(
        _spill_sort_entry, shape, work_mem, prefetch
    )
    for shape in SPILL_KEY_SHAPES
    for work_mem in (1, 2, 5, 16)
    for prefetch in (0, 2)
}
NAMED_CASES["ordered_merge/dop4/b7"] = _ordered_merge_entry


# -- the clock half, carried over: the retired BENCH trajectory -------------
#
# A retired smoke-bench suite measured a wall time, a clock and a few
# counters for each of eight scenarios. Wall time is bench/'s job; the
# clocks and counters are pinned here, each recorder building its
# scenario exactly as its bench did.


def _tpch():
    return shared_catalog(0.0005, GOLDEN_SEED)


def _stream_catalog(rows, tables=("stream",)):
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    data = [(i, float(i % 97)) for i in range(rows)]
    for name in tables:
        catalog.create(name, schema).insert_many(data)
    return catalog


def _engine_q6_entry():
    """One staged Q6 on a bare engine, eight contexts."""
    catalog = _tpch()
    sim, _ = _engine_run(catalog, 8, {"q6": build("q6", catalog).plan})
    return _entry(sim.now, completions=sim.completions)


def _scan_cooperative_entry():
    """Four concurrent scans riding one elevator pass, beside four
    private cold passes over replicas of the table."""
    page_rows = 64
    replicas = [f"stream__{t}" for t in range(4)]
    catalog = _stream_catalog(6000, ["stream", *replicas])
    pages = catalog.table("stream").page_count(page_rows)

    def run(names, **storage):
        plans = {
            f"q{i}": scan(catalog, name, columns=["k", "v"], op_id=f"scan:{name}")
            for i, name in enumerate(names)
        }
        costs = CostModel(io_page=400.0)
        sim, _ = _engine_run(
            catalog, 8, plans, costs=costs, page_rows=page_rows, **storage
        )
        return sim.now

    manager = ScanShareManager(BufferPool(pages * 2), prefetch_depth=2)
    cooperative = run(["stream"] * len(replicas), scan_manager=manager)
    independent = run(replicas, buffer_pool=BufferPool(pages * (len(replicas) + 1)))
    stats = manager.snapshot()[0]
    return _entry(
        cooperative,
        sim_independent=independent,
        physical_reads=stats.physical_reads,
        pages_served=stats.pages_served,
    )


def _sort_external_entry():
    """A two-key sort at ``work_mem`` 4, beside the same sort ungoverned."""
    catalog = Catalog()
    schema = Schema([("g", DataType.INT), ("k", DataType.INT)])
    catalog.create("stream", schema).insert_many(
        ((i * 48271) % 97, i) for i in range(4000)
    )

    def run(work_mem):
        plan = sort(
            scan(catalog, "stream", columns=["g", "k"], op_id="s"),
            [("g", True), ("k", False)],
            op_id="big_sort",
        )
        sim, _ = _engine_run(
            catalog,
            4,
            {f"wm{work_mem}": plan},
            costs=CostModel(io_page=160.0, spill_page=200.0),
            page_rows=64,
            buffer_pool=BufferPool(16),
            memory=MemoryBroker(work_mem) if work_mem is not None else None,
            spill_prefetch_depth=0,
        )
        return sim.now

    return _entry(run(4), sim_unbounded=run(None))


def _drift_throttle_entry():
    """A six-consumer convoy with 64x speed skew on a 22-page pool,
    throttled at a drift bound of 8 pages, beside the unbounded one."""
    catalog = _stream_catalog(1200)

    def run(drift_bound):
        config = RuntimeConfig(
            pool_pages=22,
            prefetch_depth=2,
            drift_bound=drift_bound,
            group_windows=False,
            page_rows=25,
            processors=12,
            cost_model=CostModel(io_page=400.0),
        )
        session = Database.open(catalog, config)
        for i, factor in enumerate((1.0, 1.0, 1.0, 16.0, 32.0, 64.0)):
            query = (
                session.table("stream", columns=["k", "v"])
                .where(ge(col("k"), 0))
                .with_cost_factor(factor)
            )
            session.submit(query, label=f"c{i}", share=False)
        session.run_all()
        return session

    throttled, unbounded = run(8), run(None)
    return _entry(
        throttled.now,
        throttled_reads=throttled.scans.snapshot()[0].physical_reads,
        unbounded_reads=unbounded.scans.snapshot()[0].physical_reads,
    )


def _session_run(trace):
    """Eight forced-solo scalar aggregates through the facade."""
    catalog = _tpch()
    session = Database.open(catalog, RuntimeConfig(processors=8, trace=trace))
    plan = aggregate(
        scan(
            catalog,
            "lineitem",
            columns=["l_quantity", "l_extendedprice"],
            predicate=lt(col("l_quantity"), 30.0),
        ),
        group_by=(),
        aggs=[AggSpec("sum", "rev", col("l_extendedprice"))],
    )
    for i in range(8):
        session.submit(plan, label=f"q{i}", share=False)
    return session, session.run_all()


def _session_trace_off_entry():
    session, results = _session_run(trace=False)
    stalls = results[-1].stalls
    return _entry(session.now, **{f"stall.{kind}": time for kind, time in stalls.items()})


def _session_trace_on_entry():
    """Same clock as ``session_trace_off``: the recorder is invisible."""
    session, _ = _session_run(trace=True)
    return _entry(session.now, trace_events=len(session.tracer.events))


def _parallel_agg_entry():
    """A 64-group aggregate over 6000 rows at dop 4, beside dop 1."""
    catalog = Catalog()
    rows, state = [], 2007
    for _ in range(6000):
        state = (state * 48271) % 2147483647
        rows.append((state % 64, (state % 1000) / 1000.0))
    schema = Schema([("g", DataType.INT), ("v", DataType.FLOAT)])
    catalog.create("events", schema).insert_many(rows)

    def run(dop):
        plan = aggregate(
            scan(catalog, "events", columns=["g", "v"]),
            ("g",),
            [AggSpec("sum", "total", col("v")), AggSpec("count", "rows", None)],
        )
        sim, _ = _engine_run(catalog, 8, {f"bench@dop{dop}": plan}, dop=dop)
        return sim.now

    return _entry(run(4), sim_serial=run(1))


def _server_steady_state_entry():
    """A seeded Poisson stream of Q6 arrivals near saturation on four
    contexts: queue-depth admission, always-share dispatch."""
    catalog = _tpch()
    server = Server.open(
        catalog,
        RuntimeConfig(processors=4),
        policy=AlwaysShare(),
        admission=QueueDepthBound(32),
        attach_inflight=False,
        keep_rows=False,
    )
    report = server.serve(
        WorkloadMix.single("q6"),
        {"q6": build("q6", catalog)},
        arrival_rate=1.0 / 2_500.0,
        horizon=400_000.0,
        drain=100_000.0,
        seed=17,
    )
    return _entry(
        server.session.now,
        submitted=report.submitted,
        completed=report.completed,
        shed=report.shed,
        goodput_per_mtime=report.goodput * 1e6,
        p99_response=report.latency.p99,
        max_group_size=report.max_group_size,
    )


NAMED_CASES.update(
    {
        "trajectory/engine_q6": _engine_q6_entry,
        "trajectory/scan_cooperative": _scan_cooperative_entry,
        "trajectory/sort_external": _sort_external_entry,
        "trajectory/drift_throttle": _drift_throttle_entry,
        "trajectory/session_trace_off": _session_trace_off_entry,
        "trajectory/session_trace_on": _session_trace_on_entry,
        "trajectory/parallel_agg": _parallel_agg_entry,
        "trajectory/server_steady_state": _server_steady_state_entry,
    }
)


# Named for its first tenants; the test ids are the golden keys.
@pytest.mark.parametrize("key", sorted(NAMED_CASES))
def test_golden_spill_times(key):
    assert NAMED_CASES[key]() == json.loads(GOLDEN.read_text())[key]


if __name__ == "__main__":
    recorded = golden_sim_times()
    recorded.update((key, record()) for key, record in NAMED_CASES.items())
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
