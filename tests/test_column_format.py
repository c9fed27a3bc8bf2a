"""One column format: a tuple of scalars, from load to batch.

The column-wise bulk load must leave exactly the database a
row-at-a-time load left (values *and* types — the old loop is kept here
as the oracle), and nothing a reader or the page cache holds may be a
container the cyclic collector walks.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.engine.expressions import col, lt, mul
from repro.errors import SchemaError
from repro.storage import Catalog, DataType, Schema, Table
from repro.storage.table import PAGE_CACHE

SCHEMA = Schema(
    [("i", DataType.INT), ("f", DataType.FLOAT), ("s", DataType.STR), ("d", DataType.DATE)]
)
_INTS = st.integers(min_value=-(2**70), max_value=2**70)
_FLOATS = st.floats(allow_nan=False)
_DATES = st.dates() | st.integers(min_value=1, max_value=800_000)
ROW = st.tuples(
    st.none() | _INTS,
    st.none() | _FLOATS | _INTS,  # ints in FLOAT are coerced
    st.none() | st.text(max_size=6),
    st.none() | _DATES,  # date objects in DATE become ordinals
)
BAD_ROW = st.one_of(
    st.tuples(st.booleans(), _FLOATS, st.text(max_size=3), _DATES),  # a bool in INT
    st.tuples(_INTS, st.text(max_size=3), st.text(max_size=3), _DATES),  # a str in FLOAT
    st.tuples(_INTS, _FLOATS, st.text(max_size=3)),  # wrong arity
)


def row_at_a_time(rows):
    """The parent commit's ingest: validate and append cell by cell."""
    columns = [[] for _ in SCHEMA.columns]
    for row in rows:
        for column, value in zip(columns, SCHEMA.validate_row(row)):
            column.append(value)
    return columns


def stored(table):
    return [[(type(v), v) for v in table.column(name)] for name in SCHEMA.names()]


@given(first=st.lists(ROW, max_size=12), second=st.lists(ROW, max_size=12))
@settings(max_examples=150, deadline=None)
def test_bulk_load_stores_what_the_row_loop_stored(first, second):
    table = Table("t", SCHEMA)
    table.insert_many(first)
    assert len(table) == len(first)  # a read between the two loads
    table.insert_many(second)
    oracle = row_at_a_time(first + second)
    assert stored(table) == [[(type(v), v) for v in column] for column in oracle]
    assert all(type(table.column(name)) is tuple for name in SCHEMA.names())


@given(rows=st.lists(ROW, max_size=6), bad=BAD_ROW, at=st.integers(min_value=0, max_value=6))
@settings(max_examples=100, deadline=None)
def test_a_bad_row_raises_the_row_loops_error_and_ingests_nothing(rows, bad, at):
    table = Table("t", SCHEMA)
    table.insert_many(rows)
    before = stored(table)
    batch = rows[:at] + [bad] + rows[at:]
    with pytest.raises(SchemaError) as expected:
        row_at_a_time(batch)
    with pytest.raises(SchemaError) as raised:
        table.insert_many(batch)
    assert str(raised.value) == str(expected.value)
    assert stored(table) == before


def test_nothing_the_data_plane_holds_is_tracked_by_the_collector():
    catalog = Catalog()
    table = catalog.create("t", Schema([("k", DataType.INT), ("v", DataType.FLOAT)]))
    table.insert_many([(i, i * 0.5) for i in range(640)])
    session = Database.open(catalog, "cmp32")
    # Two fused signatures: a compressed selection, and computed
    # outputs over one (plain slices are re-cut per read, never kept).
    selected = session.table("t").where(lt(col("k"), 600)).build()
    computed = ("w", mul(col("v"), 2.0), DataType.FLOAT)
    query = session.table("t").where(lt(col("k"), 600)).select(computed, "k").build()
    for _ in range(2):  # the first attach of a signature parks only a ghost
        assert len(session.run(selected).rows) == len(session.run(query).rows) == 600
    gc.collect()

    def columns_held():
        for name in table.schema.names():
            yield table.column(name)
        for pages in table._page_cache.values():
            assert all(page is not None for page in pages)
            for _, batch in pages:
                yield from batch.columns

    held = list(columns_held())
    assert len(table._page_cache) == 2 and len(held) > 2 + 2 * 2
    assert all(key[0] == "fused" and pages for key, pages in table._page_cache.items())
    assert all(type(column) is tuple and not gc.is_tracked(column) for column in held)

    # seal -> unseal -> seal: an insert after the read is visible to the next one.
    weight = PAGE_CACHE.weight
    table.insert((640, 0.25))
    assert not table._page_cache and PAGE_CACHE.weight < weight
    assert table.column("k")[-1] == 640 and type(table.column("v")) is tuple
    assert len(session.run(query).rows) == 600
    assert session.run(session.table("t").where(lt(col("v"), 0.3))).rows == [(0, 0.0), (640, 0.25)]
