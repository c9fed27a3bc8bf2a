"""The hash aggregate's fold kernel: exact answers, unmoved clocks.

Two pins. *Exact equality*: over random rows the staged aggregate's
output ``==`` the naive oracle :func:`aggregate_rows` — floats compared
by ``==``, not to a tolerance, because within a group the kernel adds
values in row order at every budget, batch size and degree of
parallelism. *Golden pins*: the simulated clock, spill pages and pool
evictions of two small TPC-H sessions, recorded on the commit before
the kernel replaced the per-row fold loops; a host-side rewrite may
move none of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Query, QueryBuilder, RuntimeConfig
from repro.engine.expressions import col
from repro.engine.operators.aggregate import aggregate_rows
from repro.engine.plan import AggSpec
from repro.storage import Catalog, DataType, Schema
from repro.tpch.generator import generate
from repro.tpch.queries import build

PAGE_ROWS = 4
SCHEMA = Schema(
    [("k", DataType.INT), ("s", DataType.STR), ("v", DataType.FLOAT), ("w", DataType.INT)]
)
# Every accumulate kernel, count(*) beside count(expr), two aggregates
# over one column, and min/max over both column types.
AGGS = (
    AggSpec("sum", "sum_v", col("v")),
    AggSpec("count", "n"),
    AggSpec("count", "n_v", col("v")),
    AggSpec("min", "min_v", col("v")),
    AggSpec("max", "max_w", col("w")),
    AggSpec("avg", "avg_w", col("w")),
    AggSpec("max", "max_v", col("v")),
)
GROUP_KEYS = ((), ("k",), ("k", "s"))
# Pages of work_mem: ungoverned, never spilling, and spilling after
# two pages (eight groups) of resident state.
WORK_MEM = {"unbounded": None, "ample": 64, "two_pages": 2}

# Sevenths across twelve orders of magnitude: nearly every addition
# rounds, so a sum folded in any order but row order differs in its
# last digits (hypothesis's own floats are mostly exactly summable).
awkward_floats = st.builds(
    lambda numerator, exponent: numerator / 7.0 * 10.0**exponent,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-6, max_value=6),
)
# Twelve keys, skewed so that one group recurs within a four-row batch
# and within a spill page: order mistakes inside a batch show.
skewed_keys = st.sampled_from((0,) * 8 + tuple(range(12)))
rows_strategy = st.lists(
    st.tuples(
        skewed_keys,
        st.sampled_from(["a", "b", "c"]),
        st.none() | awkward_floats,
        st.none() | st.integers(min_value=-50, max_value=50),
    ),
    min_size=48,  # enough to spill at two pages; empty input has its own test
    max_size=160,
)


def _run(catalog, group_by, work_mem, batch_size, dop):
    config = RuntimeConfig(
        work_mem=work_mem,
        pool_pages=None if work_mem is None else 32,
        page_rows=PAGE_ROWS,
        batch_size=batch_size,
    )
    session = Database.open(catalog, config)
    query = QueryBuilder(catalog, "t").agg(*AGGS, by=group_by).parallel(dop).build()
    return session.run(query).rows


@pytest.mark.parametrize("dop", [1, 4])
@pytest.mark.parametrize("budget", list(WORK_MEM))
@given(
    rows=rows_strategy,
    group_by=st.sampled_from(GROUP_KEYS),
    batch_size=st.sampled_from([1, 3, PAGE_ROWS, 64]),
)
@settings(max_examples=25, deadline=None)
def test_kernel_equals_oracle_exactly(budget, dop, rows, group_by, batch_size):
    catalog = Catalog()
    catalog.create("t", SCHEMA).insert_many(rows)
    expected = aggregate_rows(rows, SCHEMA, group_by, AGGS)
    assert _run(catalog, group_by, WORK_MEM[budget], batch_size, dop) == expected


@pytest.mark.parametrize("dop", [1, 4])
@pytest.mark.parametrize("budget", list(WORK_MEM))
def test_empty_input(budget, dop):
    catalog = Catalog()
    catalog.create("t", SCHEMA)
    for group_by in GROUP_KEYS:
        expected = aggregate_rows([], SCHEMA, group_by, AGGS)
        assert _run(catalog, group_by, WORK_MEM[budget], None, dop) == expected


# -- golden pins, recorded on the parent commit -----------------------------


@pytest.fixture(scope="module")
def tpch():
    return generate(0.001, 2007)


def _pins(session):
    snapshot = session.metrics().snapshot()
    return session.now, snapshot["spill.pages_written"], snapshot["buffer.evictions"]


def test_templated_batches_keep_clock_and_spill(tpch):
    """Q6 x4, Q13 x4, Q1 x2 as shared batches on a small ``laptop``."""
    session = Database.open(tpch, RuntimeConfig.preset("laptop").with_(pool_pages=48))
    for name, clients in (("q6", 4), ("q13", 4), ("q1", 2)):
        query = build(name, tpch)
        for _ in range(clients):
            session.submit(Query(plan=query.plan, pivot_op_id=query.pivot, name=name))
        session.run_all()
    assert _pins(session) == (123624.95000000014, 58, 510)


def test_spilling_group_by_keeps_clock_and_spill(tpch):
    """``GROUP BY l_orderkey`` under ``work_mem=16``: near-unique keys,
    most partitions spilled, singleton states appended row by row."""
    config = RuntimeConfig.preset("laptop").with_(work_mem=16, pool_pages=48)
    session = Database.open(tpch, config)
    query = (
        QueryBuilder(tpch, "lineitem", columns=["l_orderkey", "l_extendedprice"])
        .agg(
            AggSpec("sum", "total", col("l_extendedprice")),
            AggSpec("count", "n"),
            by=("l_orderkey",),
        )
        .build()
    )
    session.run(query)
    assert _pins(session) == (30744.09999999998, 23, 102)
