"""Per-layer microbenches: one public function, nothing beneath it.

Each microbench calls a layer's public function directly on synthetic
inputs and reports operations per second, so a change in the traced
self time it is paired with (README, "Layer map") can be told apart
from a change in how often the layer is called. Inputs are fixed;
nothing here depends on the workload seed.

A microbench is a function ``(catalog, rate) -> ops per second`` where
``rate(fn, ops_per_call)`` times ``fn`` for the configured duration.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.core import sharing_benefit
from repro.db import QueryBuilder
from repro.engine.engine import Engine
from repro.engine.expressions import col, compile_batch
from repro.engine.operators.aggregate import aggregate_rows
from repro.engine.operators.hash_join import build_table, probe_rows
from repro.engine.operators.sort import sort_rows
from repro.engine.packet import RowBatch
from repro.engine.plan import AggSpec
from repro.engine.reference import execute_reference
from repro.profiling import QueryProfiler
from repro.server.admission import AdmissionView, QueueDepthBound
from repro.sim import Compute, Get, Put, Simulator
from repro.storage import BufferPool, Catalog, DataType, ScanShareManager, Schema, SpillCursor
from repro.storage.buffer import table_page_key
from repro.storage.shared_scan import PrefetchFIFO
from repro.tpch.generator import generate
from repro.tpch.queries import build

_SCALE = 0.001  # a lineitem of about 6 000 rows: inputs, not a workload


def _timed(fn, ops_per_call: int, seconds: float, repeats: int) -> float:
    """Median over ``repeats`` of ops/s, each measured for ``seconds``."""
    fn()  # warm caches and lazy set-up
    rates = []
    for _ in range(repeats):
        calls = 0
        started = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                break
        rates.append(calls * ops_per_call / elapsed)
    return statistics.median(rates)


def _lineitem(catalog, names):
    table = catalog.table("lineitem")
    return [list(table.column(name)) for name in names], table.projected_schema(names)


def sim_compute(catalog, rate):
    """64 tasks of 2 000 ``Compute`` events on 8 contexts."""

    def task():
        for _ in range(2_000):
            yield Compute(1.0)

    def run():
        sim = Simulator(processors=8)
        for index in range(64):
            sim.spawn(task(), name=f"t{index}")
        sim.run()

    return rate(run, 64 * 2_000)


def sim_queue(catalog, rate):
    """``Put``/``Get`` pairs through one bounded queue."""
    messages = 20_000

    def run():
        sim = Simulator(processors=2)
        queue = sim.queue("q", capacity=4)

        def producer():
            for index in range(messages):
                yield Put(queue, index)

        def consumer():
            for _ in range(messages):
                yield Get(queue)

        sim.spawn(producer(), name="producer")
        sim.spawn(consumer(), name="consumer")
        sim.run()

    return rate(run, messages)


def _pool_sweep(pool, pages: int, rate):
    keys = [table_page_key("t", index) for index in range(pages)]

    def run():
        access = pool.access
        for key in keys:
            access(key)

    return rate(run, pages)


def pool_hit(catalog, rate):
    """``BufferPool.access`` over a resident working set."""
    return _pool_sweep(BufferPool(1024, "lru"), 1024, rate)


def pool_evict(catalog, rate):
    """A cyclic sweep over twice the capacity, ``scan`` policy."""
    pool = BufferPool(512, "scan")
    pool.scan_hint("t", 1024)
    return _pool_sweep(pool, 1024, rate)


def fifo_settle(catalog, rate):
    """``PrefetchFIFO`` issue / drain / settle, two pages ahead."""
    pages = 4_096

    def run():
        fifo = PrefetchFIFO()
        for index in range(pages):
            fifo.issue(index + 2, 10.0)
            fifo.drain(6.0)
            fifo.settle(index, True, 10.0)

    return rate(run, pages)


def scans_acquire(catalog, rate):
    """Four tickets riding one elevator for a full revolution."""
    pages = 1_024
    scans = ScanShareManager(BufferPool(2 * pages, "lru"), prefetch_depth=2)

    def run():
        tickets = [scans.attach("t", pages) for _ in range(4)]
        for _ in range(pages):
            for ticket in tickets:
                scans.acquire(ticket, 10.0, cpu_credit=6.0)
                ticket.advance()
        for ticket in tickets:
            scans.detach(ticket)

    return rate(run, 4 * pages)


def spill_pages(catalog, rate):
    """``SpillFile`` write, then ``SpillCursor`` read-back."""
    pages, page_rows = 256, 64
    rows = [(index, float(index)) for index in range(pages * page_rows)]
    pool = BufferPool(128, "lru")

    def run():
        spill = pool.spill_file(page_rows)
        spill.append_rows(rows)
        spill.flush()
        cursor = SpillCursor(spill, 10.0, prefetch_depth=2)
        while not cursor.exhausted:
            cursor.next_page(cpu_credit=6.0)
        spill.drop()

    return rate(run, pages)


def batch_select(catalog, rate):
    """``RowBatch.select`` of every other row, then ``.rows``."""
    names = ["l_orderkey", "l_quantity", "l_extendedprice", "l_shipdate"]
    columns, _ = _lineitem(catalog, names)
    n = len(columns[0])
    flags = [index % 2 == 0 for index in range(n)]
    kept = sum(flags)
    return rate(lambda: RowBatch.from_columns(columns, n).select(flags, kept).rows, n)


def expr_batch(catalog, rate):
    """``compile_batch`` of the Q6 predicate over lineitem columns."""
    scan = build("q6", catalog).pivot_node()
    columns, schema = _lineitem(catalog, list(scan.params["columns"]))
    predicate = compile_batch(scan.params["predicate"], schema)
    n = len(columns[0])
    return rate(lambda: predicate(columns, n), n)


def aggregate(catalog, rate):
    """``aggregate_rows`` with Q1's eight accumulators."""
    q1 = build("q1", catalog)
    scan = q1.pivot_node()
    rows = execute_reference(scan, catalog)
    params = q1.plan.find("q1_agg").params
    return rate(
        lambda: aggregate_rows(rows, scan.schema, params["group_by"], params["aggs"]),
        len(rows),
    )


def join(catalog, rate):
    """``build_table`` over orders, ``probe_rows`` with lineitem."""
    orders, lineitem = catalog.table("orders"), catalog.table("lineitem")
    build_rows = list(zip(orders.column("o_orderkey"), orders.column("o_orderdate")))
    probe = list(zip(lineitem.column("l_orderkey"), lineitem.column("l_quantity")))
    return rate(
        lambda: probe_rows(probe, build_table(build_rows, 0), 0, "inner", 2),
        len(build_rows) + len(probe),
    )


def sort(catalog, rate):
    """``sort_rows`` on mixed ascending and descending keys."""
    names = ["l_returnflag", "l_extendedprice", "l_orderkey"]
    columns, schema = _lineitem(catalog, names)
    rows = list(zip(*columns))
    keys = [("l_returnflag", True), ("l_extendedprice", False), ("l_orderkey", True)]
    return rate(lambda: sort_rows(rows, schema, keys), len(rows))


def exchange(catalog, rate):
    """Rows per second through the exchange fabric alone: the wall a
    dop-4 plan costs beyond its serial twin, on a synthetic table."""
    n = 20_000
    rng = random.Random(7)
    pairs = Catalog()
    table = pairs.create("pairs", Schema([("k", DataType.INT), ("v", DataType.FLOAT)]))
    table.insert_many([(rng.randrange(1_000), float(index)) for index in range(n)])
    plan = QueryBuilder(pairs, "pairs").agg(AggSpec("sum", "total", col("v")), by=("k",)).plan()

    def run_at(dop):
        def run():
            engine = Engine(pairs, Simulator(processors=8))
            handle = engine.execute(plan, "q", dop=dop)
            engine.sim.run()
            handle.rows

        return run

    extra_s_per_row = 1.0 / rate(run_at(4), n) - 1.0 / rate(run_at(1), n)
    # A fabric that costs nothing measurable is reported as very fast,
    # not as a division by zero.
    return 1.0 / max(extra_s_per_row, 1e-12)


def benefit(catalog, rate):
    """``core.sharing_benefit`` on the profiled Q6 spec, 8 sharers."""
    q6 = build("q6", catalog)
    spec = QueryProfiler(catalog).profile(q6.plan, q6.pivot, label="q6").to_query_spec()
    group = [spec.relabeled(f"q6#{index}") for index in range(8)]
    return rate(lambda: sharing_benefit(group, q6.pivot, 8), 1)


def admission(catalog, rate):
    """``QueueDepthBound.admit`` on views either side of the bound."""
    policy = QueueDepthBound(48)
    views = [AdmissionView(depth, 4, 0.0) for depth in range(96)]

    def run():
        admit = policy.admit
        for view in views:
            admit(view)

    return rate(run, len(views))


def tpch_generate(catalog, rate):
    """``tpch.generator.generate``: orders and lineitem rows made."""
    rows = len(catalog.table("lineitem")) + len(catalog.table("orders"))
    return rate(lambda: generate(_SCALE, 1), rows)


MICROS = {
    "micro.sim.compute_events_per_s": sim_compute,
    "micro.sim.queue_msgs_per_s": sim_queue,
    "micro.storage.pool.hit_per_s": pool_hit,
    "micro.storage.pool.evict_per_s": pool_evict,
    "micro.storage.fifo.settle_per_s": fifo_settle,
    "micro.storage.scans.acquire_per_s": scans_acquire,
    "micro.storage.spill.pages_per_s": spill_pages,
    "micro.engine.batch.select_rows_per_s": batch_select,
    "micro.engine.expr.rows_per_s": expr_batch,
    "micro.engine.aggregate.rows_per_s": aggregate,
    "micro.engine.join.rows_per_s": join,
    "micro.engine.sort.rows_per_s": sort,
    "micro.engine.exchange.rows_per_s": exchange,
    "micro.core.benefit_evals_per_s": benefit,
    "micro.server.admission.decisions_per_s": admission,
    "micro.tpch.generate_rows_per_s": tpch_generate,
}


def run_all(seconds: float, repeats: int) -> dict:
    """Every microbench: ``{metric name: ops per second}``."""
    catalog = generate(_SCALE, 1)

    def rate(fn, ops_per_call: int) -> float:
        return _timed(fn, ops_per_call, seconds, repeats)

    return {name: bench(catalog, rate) for name, bench in MICROS.items()}
