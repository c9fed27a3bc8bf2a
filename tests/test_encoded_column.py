"""An encoded column (``Table.encode``): ingest carries codes into a
small domain, the table keeps them a byte (or the narrowest array item)
each, and a read builds the column from the domain.

Every reader of an encoded table must see what it sees of a plain table
fed the decoded values, at every domain width the code buffer switches
at, and across an ingest after a read.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError, StorageError
from repro.storage import Catalog, DataType, Schema

SCHEMA = Schema(
    [("k", DataType.INT), ("v", DataType.INT), ("s", DataType.STR), ("x", DataType.FLOAT)]
)
# The widths where the code buffer changes: bytes up to 256 values, two
# bytes up to 65 536, four above.
SIZES = (1, 2, 256, 257, 65536, 65537)
STRINGS = ("north", "south", "east")
PAGE_ROWS = 7


@functools.cache
def domain_of(size):
    """``size`` ints that are not their own codes."""
    return tuple(range(10**6, 10**6 + size))


def tables(size):
    """An empty table with ``v`` and ``s`` encoded, and its plain twin."""
    encoded = Catalog().create("t", SCHEMA)
    encoded.encode("v", domain_of(size))
    encoded.encode("s", STRINGS)
    return encoded, Catalog().create("t", SCHEMA)


def decoded(size, rows):
    domain = domain_of(size)
    return [(k, domain[v], STRINGS[s], x) for k, v, s, x in rows]


def readings(table):
    """What every reader of ``table`` returns."""
    n_pages = table.page_count(PAGE_ROWS)
    return {
        "len": len(table),
        "column": [table.column(name) for name in SCHEMA.names()],
        "row": [table.row(i) for i in range(len(table))],
        "rows": list(table.rows()),
        "scan_pages(None)": [p.rows for p in table.scan_pages(None, PAGE_ROWS)],
        "scan_pages(cols)": [p.rows for p in table.scan_pages(["s", "v", "x"], PAGE_ROWS)],
        "column_slices": [table.column_slices(i, ["x", "v"], PAGE_ROWS) for i in range(n_pages)],
        "not_null": (table.not_null(), table.not_null(["x", "s", "v"])),
    }


READERS = (
    lambda t: t.column("v"),
    lambda t: t.row(len(t) - 1),
    lambda t: t.column_slices(0, ["s"], PAGE_ROWS),
    lambda t: [p.rows for p in t.scan_pages(["k", "v"], PAGE_ROWS)],
    lambda t: t.not_null(),
    lambda t: None,  # no read between two ingests
)


@st.composite
def batches(draw, size):
    row = st.tuples(
        st.integers(0, 10**9),
        st.integers(0, size - 1),
        st.integers(0, len(STRINGS) - 1),
        st.one_of(st.none(), st.integers(-9, 9).map(float)),
    )
    return draw(st.lists(st.lists(row, min_size=1, max_size=20), min_size=1, max_size=4))


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_reader_sees_the_plain_tables_values(size, data):
    encoded, plain = tables(size)
    for rows in data.draw(batches(size)):
        encoded.insert_many(rows)
        plain.insert_many(decoded(size, rows))
        read = data.draw(st.sampled_from(READERS))
        assert read(encoded) == read(plain)  # the next ingest follows a read
    assert readings(encoded) == readings(plain)
    assert all(type(column) is tuple for column in readings(encoded)["column"])


@pytest.mark.parametrize("size, itemsize", [(1, 1), (256, 1), (257, 2), (65536, 2), (65537, 4)])
def test_codes_take_the_narrowest_width_that_fits(size, itemsize):
    encoded, _ = tables(size)
    encoded.insert_many([(0, size - 1, 2, 1.0)])
    codes = encoded._encoded[SCHEMA.index_of("v")][1]
    assert memoryview(codes).itemsize == itemsize
    assert encoded.column("v") == (domain_of(size)[-1],)


@pytest.mark.parametrize(
    "bad",
    [lambda size: True, lambda size: 1.0, lambda size: None, lambda size: -1, len],
    ids=["bool", "float", "none", "negative", "size"],
)
@pytest.mark.parametrize("column", ["v", "s"], ids=["two-byte", "byte"])
def test_a_bad_code_raises_and_leaves_the_table_unchanged(bad, column):
    encoded, _ = tables(257)
    encoded.insert_many([(1, 5, 0, 1.5), (2, 256, 1, None)])
    readings(encoded)
    encoded.insert_many([(3, 7, 2, 2.5)])  # an ingest after a read
    before = readings(encoded)
    code = bad(domain_of(257) if column == "v" else STRINGS)
    row = (5, code, 0, 4.5) if column == "v" else (5, 0, code, 4.5)
    with pytest.raises(SchemaError):
        encoded.insert_many([(4, 0, 0, 3.5), row])
    assert readings(encoded) == before


def test_encode_raises_on_a_table_that_holds_rows():
    table = Catalog().create("t", SCHEMA)
    table.insert_many([(1, 2, "north", 1.0)])
    with pytest.raises(StorageError):
        table.encode("s", STRINGS)
    assert table.column("s") == ("north",)


@pytest.mark.parametrize(
    "name, domain",
    [
        ("s", ("north", None)),
        ("v", (1, "2")),
        ("v", (1, True)),
        ("x", (1.0, 2)),  # an int needs coercion to FLOAT: not the stored type
    ],
    ids=["null", "str-in-int", "bool-in-int", "int-in-float"],
)
def test_encode_raises_on_a_domain_of_the_wrong_values(name, domain):
    table = Catalog().create("t", SCHEMA)
    with pytest.raises(SchemaError):
        table.encode(name, domain)
    table.insert_many([(1, 2, "north", 1.0)])  # the column was left plain
    assert table.column(name) == ({"s": "north", "v": 2, "x": 1.0}[name],)


def test_deferring_an_encoded_column_drops_its_codes():
    table, _ = tables(3)
    table.insert_many([(1, 2, 0, 1.0), (2, 0, 1, 2.0)])
    table.defer("v", lambda: [7, 8])
    assert table.column("v") == (7, 8)
    table.insert_many([(3, 9, 2, 3.0)])  # ``v`` carries a value again
    assert table.column("v") == (7, 8, 9)
    assert table.column("s") == ("north", "south", "east")
