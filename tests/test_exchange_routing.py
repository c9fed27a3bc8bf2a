"""The exchange routes a key once per engine and a batch once per route.

An engine holds one partition memo per fanout for its whole life
(``Engine.exchange_memo``), and an exchange keeps the split it made of
a batch on that batch, keyed by its route ``(key_indices, fanout)``.
Both are host-side caches: what they hold may depend on what ran
before, but what they return never does — the memo always answers
``partition_of(key, EXCHANGE_SALT, fanout)``, a split always equals a
fresh bucketing for its own route, and a query's rows and simulated
duration are the same after any history as on a fresh session.
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
from repro.sim.events import Put
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
    for event in chain(exchange.next_batch(batch, 0), exchange.finish()):
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
        assert _route(batch, key_indices, dop, engine, node) == _expected(rows, key_indices, dop)
        assert batch._split[0] == (key_indices, dop)
    # The same route again reuses the split the batch keeps.
    split = batch._split
    assert _route(batch, (0,), 4, engine, node) == _expected(rows, (0,), 4)
    assert batch._split is split


def test_a_parked_page_is_routed_once(monkeypatch):
    """The benchmark's ``parallel_aggregate`` plan at dop 4: once its
    scan's pages are parked (the signature's second attach), a further
    run looks up no key of a page the scan emitter passes through
    whole; only the table's last, partial page is re-cut into a new
    batch and routed again."""
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
