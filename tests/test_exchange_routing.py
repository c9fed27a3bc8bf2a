"""The exchange routes a key once per engine and a batch once per route.

An engine holds one partition memo per fanout for its whole life
(``Engine.exchange_memo``), and an exchange keeps the split it made of
a batch on that batch, keyed by its route ``(key_indices, fanout)``.
Both are host-side caches: what they hold may depend on what ran
before, but what they return never does — the memo always answers
``partition_of(key, EXCHANGE_SALT, fanout)``, a split always equals a
fresh bucketing for its own route, and a query's rows and simulated
duration are the same after any history as on a fresh session.

A batch is split from its columns whatever its backing, into
per-partition column tuples, and every partition leaves column-backed.
Each partition queue receives the pages a plain row bucketing would
cut, at the same row counts, with the same costs, in the same order.
"""

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, QueryBuilder, RuntimeConfig
from repro.engine import AggSpec, Engine, scan
from repro.engine import engine as engine_module
from repro.engine.expressions import col, lt
from repro.engine.operators import partitioning
from repro.engine.operators.partitioning import partition_of
from repro.engine.packet import RowBatch
from repro.engine.parallel.exchange import EXCHANGE_MEMO_KEYS, EXCHANGE_SALT, ExchangeOperator
from repro.sim import Simulator
from repro.sim.events import Close, Compute, Put
from repro.sim.queues import SimQueue
from repro.storage import Catalog, DataType, Schema
from repro.tpch.generator import generate

# A multi-column key is a tuple whose every position comes from one
# typed column, so the tuples here keep one type per position.
exchange_keys = (
    st.integers(-(10**6), 10**6)
    | st.integers(-1000, 1000).map(float)
    | st.text(max_size=6)
    | st.none()
    | st.tuples(st.integers(0, 40), st.text(max_size=2))
)
dops = st.sampled_from([2, 3, 4, 8])
SMALL_BOUND = 5


@given(keys=st.lists(exchange_keys, max_size=60), dop=dops)
@settings(max_examples=150, deadline=None)
def test_the_engine_memo_answers_partition_of_whatever_came_before(keys, dop):
    with pytest.MonkeyPatch.context() as patch:
        # A bound small enough that a short key list fills it and
        # starts over, several times.
        patch.setattr(engine_module, "EXCHANGE_MEMO_KEYS", SMALL_BOUND)
        memo = Engine(Catalog(), Simulator(processors=1)).exchange_memo(dop)
    assert memo.bound == SMALL_BOUND
    routed = []
    for key in keys:
        (partition,) = map(memo.__getitem__, [key])
        routed.append(partition)
        assert len(memo) <= SMALL_BOUND
    assert routed == [partition_of(key, EXCHANGE_SALT, dop) for key in keys]


def test_one_memo_per_fanout_for_the_engines_life():
    engine = Engine(Catalog(), Simulator(processors=1))
    four = engine.exchange_memo(4)
    assert engine.exchange_memo(4) is four and engine.exchange_memo(2) is not four
    assert (four.salt, four.fanout, four.bound) == (EXCHANGE_SALT, 4, EXCHANGE_MEMO_KEYS)
    # Past its bound it starts over and still answers partition_of.
    for key in range(EXCHANGE_MEMO_KEYS + 3):
        four[float(key)]
    assert len(four) == 3
    assert [four[key] for key in (0, 1.0, 7)] == [
        partition_of(key, EXCHANGE_SALT, 4) for key in (0, 1, 7)
    ]


# ----------------------------------------------------------------------
# A query's answer and clock do not depend on the session's history
# ----------------------------------------------------------------------


def _catalog() -> Catalog:
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("g", DataType.INT), ("v", DataType.FLOAT)])
    catalog.create("t", schema).insert_many(
        ((i * 37) % 1500, i % 41, (i % 97) / 7) for i in range(3000)
    )
    dim = Schema([("dk", DataType.INT), ("w", DataType.FLOAT)])
    catalog.create("d", dim).insert_many((k, k / 3) for k in range(0, 1500, 2))
    return catalog


def _queries(catalog):
    """A (a dop-4 join on ``k``) fills the engine's fanout-4 memo with
    keys B (a dop-4 aggregate on ``g``, then a dop-4 join) meets too."""
    a = (
        QueryBuilder(catalog, "t", columns=["k", "v"])
        .where(lt(col("v"), 9.0))
        .hash_join(QueryBuilder(catalog, "d", columns=["dk", "w"]), "dk", "k")
        .named("a")
        .parallel(4)
        .build()
    )
    b_agg = (
        QueryBuilder(catalog, "t", columns=["g", "v"])
        .agg(AggSpec("sum", "total", col("v")), AggSpec("count", "n"), by=("g",))
        .order_by("g")
        .named("b_agg")
        .parallel(4)
        .build()
    )
    b_join = (
        QueryBuilder(catalog, "t", columns=["g", "k"])
        .hash_join(QueryBuilder(catalog, "d", columns=["dk", "w"]), "dk", "g")
        .named("b_join")
        .parallel(4)
        .build()
    )
    return a, (b_agg, b_join)


@pytest.mark.parametrize("bound", [EXCHANGE_MEMO_KEYS, SMALL_BOUND])
def test_a_query_after_another_equals_itself_on_a_fresh_session(bound, monkeypatch):
    """B after A returns B's fresh rows. Its duration is B's fresh one
    up to the rounding of a clock that no longer starts at 0, and bit
    for bit the duration of B after A on a session whose exchange memo
    was emptied in between: the memo's contents move no clock."""
    monkeypatch.setattr(engine_module, "EXCHANGE_MEMO_KEYS", bound)
    catalog = _catalog()
    config = RuntimeConfig(processors=8)
    a, bs = _queries(catalog)
    for b in bs:
        fresh = Database.open(catalog, config).run(b, share=False)
        afters = []
        for empty_the_memo in (False, True):
            session = Database.open(catalog, config)
            session.run(a, share=False)
            memo = session.engine.exchange_memo(4)
            assert memo and len(memo) <= bound
            if empty_the_memo:
                memo.clear()
            afters.append(session.run(b, share=False))
            assert [r.outcome for r in session.audit_log().records] == ["parallel"] * 2
        warm, emptied = afters
        assert warm.rows == emptied.rows == fresh.rows
        assert warm.latency == emptied.latency == pytest.approx(fresh.latency, rel=1e-12)


# ----------------------------------------------------------------------
# The split a batch keeps is keyed by its route
# ----------------------------------------------------------------------


def _route(batch, key_indices, dop, engine, node):
    """The rows each partition queue receives when one exchange routes
    ``batch``."""
    queues = [SimQueue(f"p{j}", 1 << 20) for j in range(dop)]
    exchange = ExchangeOperator(node, engine.ctx, queues, key_indices, engine.exchange_memo(dop))
    received = {queue: [] for queue in queues}
    closes = chain.from_iterable(emitter.close() for emitter in exchange.emitters)
    for event in chain(exchange.next_batch(batch, 0), closes):
        if type(event) is Put:
            received[event.queue].extend(event.item.rows)
    return [received[queue] for queue in queues]


def _expected(rows, key_indices, dop):
    def key(row):
        values = tuple(row[i] for i in key_indices)
        return values[0] if len(values) == 1 else values

    partitions = [partition_of(key(row), EXCHANGE_SALT, dop) for row in rows]
    return [[row for row, p in zip(rows, partitions) if p == j] for j in range(dop)]


def test_one_batch_through_exchanges_of_different_routes():
    catalog = _catalog()
    engine = Engine(catalog, Simulator(processors=4))
    node = scan(catalog, "t", columns=["k", "g", "v"])
    rows = list(catalog.table("t").rows())[:64]
    batch = RowBatch.from_columns([tuple(column) for column in zip(*rows)])
    for key_indices, dop in [((0,), 4), ((1,), 4), ((1,), 3), ((0, 1), 4), ((0,), 4)]:
        expected = _expected(rows, key_indices, dop)
        assert _route(batch, key_indices, dop, engine, node) == expected
        # (route, buckets): one tuple of column tuples per partition.
        assert batch._split == (
            (key_indices, dop),
            tuple(tuple(zip(*part)) if part else () for part in expected),
        )
    # The same route again reuses the split the batch keeps.
    split = batch._split
    assert _route(batch, (0,), 4, engine, node) == _expected(rows, (0,), 4)
    assert batch._split is split


def test_a_parked_page_is_routed_once(monkeypatch):
    """The benchmark's ``parallel_aggregate`` plan at dop 4: once its
    scan's pages are parked (the signature's second attach), a further
    run looks up no key of a page the scan emitter passes through
    whole; only the table's last, partial page is re-cut into a new
    batch and routed again. The re-cut reads the parked page's columns,
    so no parked page holds row tuples."""
    looked_up = []

    class CountingMemo(partitioning.PartitionMemo):
        def __getitem__(self, key):
            looked_up.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(engine_module, "PartitionMemo", CountingMemo)
    catalog = generate(0.0005, 5)
    config = RuntimeConfig(processors=8)
    query = (
        QueryBuilder(catalog, "lineitem", columns=["l_suppkey", "l_extendedprice"])
        .agg(
            AggSpec("sum", "revenue", col("l_extendedprice")),
            AggSpec("count", "n"),
            by=("l_suppkey",),
        )
        .order_by("l_suppkey")
        .named("parallel_aggregate")
        .parallel(4)
        .build()
    )
    table = catalog.table("lineitem")
    n_pages = table.page_count(config.page_rows)
    (tail,) = table.column_slices(n_pages - 1, ["l_suppkey"], config.page_rows)
    assert 0 < len(tail) < config.page_rows
    session = Database.open(catalog, config)
    runs, lookups = [], []
    for _ in range(3):
        looked_up.clear()
        runs.append(session.run(query, share=False).rows)
        lookups.append(list(looked_up))
    assert runs[0] == runs[1] == runs[2]
    every_row = list(table.column("l_suppkey"))
    # First attach: a ghost, nothing parked. Second: the pages are parked
    # and split as they pass. Third: only the re-cut tail is routed.
    assert sorted(lookups[0]) == sorted(lookups[1]) == sorted(every_row)
    assert lookups[2] == list(tail)
    # The exchange split the full parked pages from their columns, and
    # the scan emitter re-cut the partial tail from its columns: no
    # parked page holds row tuples.
    parked = [batch for pages in table._page_cache.values() for _, batch in pages or ()]
    assert len(parked) == n_pages
    assert all(batch._rows is None for batch in parked)
    full = [batch for batch in parked if len(batch) == config.page_rows]
    assert len(full) == n_pages - 1
    assert all(batch._split[0] == ((0,), 4) for batch in full)


# ----------------------------------------------------------------------
# Columnar routing cuts the pages a plain row bucketing cuts
# ----------------------------------------------------------------------

PAGE_ROWS = 5
WIDTH = 3
ROUTE_KEYS = [(0,), (1,), (0, 1), (2, 0)]
routed_rows = st.tuples(
    st.integers(-30, 30) | st.none(),
    st.integers(0, 4).map(float),
    st.text(max_size=2),
)
# (backing, rows, keep-flags): the flags make a ``select`` view over
# the backing, ``None`` the plain batch.
stream_batches = st.tuples(
    st.sampled_from(["columns", "rows"]),
    st.lists(routed_rows, max_size=PAGE_ROWS),
).flatmap(
    lambda spec: st.tuples(
        st.just(spec[0]),
        st.just(spec[1]),
        st.none() | st.lists(st.booleans(), min_size=len(spec[1]), max_size=len(spec[1])),
    )
)


def _batch(backing, rows, flags):
    if backing == "columns":
        columns = [tuple(column) for column in zip(*rows)] or [()] * WIDTH
        batch = RowBatch.from_columns(columns, len(rows))
    else:
        batch = RowBatch.from_rows(tuple(rows), WIDTH)
    if flags is None:
        return batch, list(rows)
    return batch.select(flags, sum(flags)), [row for row, keep in zip(rows, flags) if keep]


def _events(stream, key_indices, dop, engine, node):
    """What an exchange yields for ``stream``: each Compute's cost,
    each Put's partition, rows and backing, each Close's partition."""
    queues = [SimQueue(f"p{j}", 1 << 20) for j in range(dop)]
    exchange = ExchangeOperator(node, engine.ctx, queues, key_indices, engine.exchange_memo(dop))
    steps = chain.from_iterable(exchange.next_batch(batch, 0) for batch in stream)
    events, backings = [], []
    closes = chain.from_iterable(emitter.close() for emitter in exchange.emitters)
    for event in chain(steps, closes):
        if type(event) is Compute:
            events.append(("compute", event.cost))
        elif type(event) is Put:
            events.append(("put", queues.index(event.queue), event.item.rows))
            backings.append(event.item._columns is not None)
        else:
            assert type(event) is Close
            events.append(("close", queues.index(event.queue)))
    return events, backings


def _reference_events(streamed_rows, key_indices, dop, costs):
    """The exchange's event stream, bucketing row tuples by hand."""
    events = []
    pending = [[] for _ in range(dop)]

    def flush(partition, take):
        page = tuple(pending[partition][:take])
        del pending[partition][:take]
        events.append(("compute", costs.page_output_cost(take, WIDTH, consumers=1)))
        events.append(("put", partition, page))

    for rows in streamed_rows:
        events.append(("compute", costs.exchange_tuple * len(rows)))
        for partition, bucket in enumerate(_expected(rows, key_indices, dop)):
            pending[partition].extend(bucket)
            while len(pending[partition]) >= PAGE_ROWS:
                flush(partition, PAGE_ROWS)
    for partition in range(dop):
        if pending[partition]:
            flush(partition, len(pending[partition]))
        events.append(("close", partition))
    return events


@given(
    specs=st.lists(stream_batches, max_size=12),
    tail=st.lists(routed_rows, min_size=1, max_size=PAGE_ROWS - 1) | st.none(),
    key_indices=st.sampled_from(ROUTE_KEYS),
    dop=dops,
)
@settings(max_examples=200, deadline=None)
def test_routing_matches_a_plain_row_bucketing(specs, tail, key_indices, dop):
    """Any mix of column-backed, row-backed and ``select``-view
    batches, optionally ending in a row-backed partial page: every
    queue receives the reference's pages, costs and Put order, and
    every page arrives column-backed."""
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("g", DataType.FLOAT), ("s", DataType.STR)])
    catalog.create("t", schema)
    engine = Engine(catalog, Simulator(processors=1), page_rows=PAGE_ROWS)
    node = scan(catalog, "t", columns=["k", "g", "s"])
    if tail is not None:
        specs = specs + [("rows", tail, None)]
    stream, streamed_rows = zip(*[_batch(*spec) for spec in specs]) if specs else ((), ())
    events, backings = _events(stream, key_indices, dop, engine, node)
    assert events == _reference_events(streamed_rows, key_indices, dop, engine.ctx.costs)
    assert all(backings)
    # A second exchange over the same batches reuses their splits and
    # yields the same events.
    assert _events(stream, key_indices, dop, engine, node)[0] == events
