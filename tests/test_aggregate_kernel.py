"""The hash aggregate's generated fold: exact answers.

Over random rows the staged aggregate's output ``==`` the naive oracle
:func:`aggregate_rows` — floats compared by ``==``, not to a tolerance,
because within a group the fold adds values in row order at every
budget, batch size and degree of parallelism. The clocks, spill pages
and pool evictions of two small governed TPC-H sessions are golden
entries (``trajectory/templated_batches``,
``trajectory/spilling_group_by`` in ``tests/test_batch_parity.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, QueryBuilder, RuntimeConfig
from repro.engine.costs import CostModel
from repro.engine.expressions import add, col, mul, udf
from repro.engine.operators.aggregate import AggregateOperator, aggregate_rows
from repro.engine.operators.api import StageContext
from repro.engine.plan import AggSpec, aggregate, scan
from repro.sim import Simulator
from repro.storage import Catalog, DataType, Schema

PAGE_ROWS = 4
SCHEMA = Schema(
    [("k", DataType.INT), ("s", DataType.STR), ("v", DataType.FLOAT), ("w", DataType.INT)]
)


def _odd_or_null(w):
    """NULL from an expression, not a column: ``None`` unless ``w`` is odd."""
    return w if w is not None and w % 2 else None


# Every aggregate function, count(*) beside count(expr), two aggregates
# over one column, min/max over both column types, and value
# expressions the fold inlines — arithmetic over two columns and a UDF
# whose NULLs come from the expression, not from a column.
AGGS = (
    AggSpec("sum", "sum_v", col("v")),
    AggSpec("count", "n"),
    AggSpec("count", "n_v", col("v")),
    AggSpec("min", "min_v", col("v")),
    AggSpec("max", "max_w", col("w")),
    AggSpec("avg", "avg_w", col("w")),
    AggSpec("max", "max_v", col("v")),
    AggSpec("sum", "sum_vw", mul(col("v"), col("w"))),
    AggSpec("avg", "avg_w1", add(col("w"), 1)),
    AggSpec("count", "n_odd", udf("odd_or_null", _odd_or_null, col("w"))),
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


def _run(catalog, group_by, work_mem, batch_size, dop, aggs=AGGS):
    config = RuntimeConfig(
        work_mem=work_mem,
        pool_pages=None if work_mem is None else 32,
        page_rows=PAGE_ROWS,
        batch_size=batch_size,
    )
    session = Database.open(catalog, config)
    query = QueryBuilder(catalog, "t").agg(*aggs, by=group_by).parallel(dop).build()
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


@pytest.mark.parametrize("budget", list(WORK_MEM))
@given(
    rows=rows_strategy,
    group_by=st.sampled_from(GROUP_KEYS[1:]),
    batch_size=st.sampled_from([1, PAGE_ROWS, 64]),
)
@settings(max_examples=10, deadline=None)
def test_group_by_only_equals_oracle(budget, rows, group_by, batch_size):
    """``aggs=()``: the fold only resolves groups (and spills them)."""
    catalog = Catalog()
    catalog.create("t", SCHEMA).insert_many(rows)
    expected = aggregate_rows(rows, SCHEMA, group_by, ())
    assert _run(catalog, group_by, WORK_MEM[budget], batch_size, 1, aggs=()) == expected


@pytest.mark.parametrize("group_by", GROUP_KEYS)
def test_equal_signatures_share_one_generated_fold(group_by):
    catalog = Catalog()
    catalog.create("t", SCHEMA)
    ctx = StageContext(catalog, CostModel(), PAGE_ROWS)
    queue = Simulator(1).queue("out")
    operators = [
        AggregateOperator(aggregate(scan(catalog, "t"), group_by, list(AGGS)), ctx, [queue])
        for _ in range(2)
    ]
    assert operators[0].node is not operators[1].node
    assert operators[0].fold is operators[1].fold
    assert operators[0].merge is operators[1].merge


@pytest.mark.parametrize("dop", [1, 4])
@pytest.mark.parametrize("budget", list(WORK_MEM))
def test_empty_input(budget, dop):
    catalog = Catalog()
    catalog.create("t", SCHEMA)
    for group_by in GROUP_KEYS:
        expected = aggregate_rows([], SCHEMA, group_by, AGGS)
        assert _run(catalog, group_by, WORK_MEM[budget], None, dop) == expected

