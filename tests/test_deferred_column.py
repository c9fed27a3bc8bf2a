"""A deferred column (``Table.defer``): held as a build function until a
read needs it, then stored as the tuple it built.

The generator defers every TPC-H comment column, so a query that reads
no comment never builds one; an encoded column (``Table.encode``) is
built from its codes the same way.
"""

import importlib.util
import os
import sys

import pytest

from repro.db import Database, Query, RuntimeConfig
from repro.errors import SchemaError, StorageError
from repro.storage import Catalog, DataType, Schema
from repro.tpch.generator import generate
from repro.tpch.queries import build

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMENTS = {
    "region": "r_comment",
    "nation": "n_comment",
    "supplier": "s_comment",
    "part": "p_comment",
    "partsupp": "ps_comment",
    "customer": "c_comment",
    "orders": "o_comment",
    "lineitem": "l_comment",
}


# Every small-domain column of the two big tables is held as codes.
ENCODED = {
    "orders": (
        "o_custkey", "o_orderstatus", "o_orderdate", "o_orderpriority", "o_clerk",
        "o_shippriority",
    ),
    "lineitem": (
        "l_partkey", "l_suppkey", "l_linenumber", "l_quantity", "l_discount", "l_tax",
        "l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate", "l_receiptdate",
        "l_shipinstruct", "l_shipmode",
    ),
}


def is_deferred(table, name):
    return callable(table._columns[table.schema.index_of(name)])


def built_comments(catalog):
    return {t for t, name in COMMENTS.items() if not is_deferred(catalog.table(t), name)}


def built_encoded(catalog):
    """The encoded columns a read has built, after checking which are encoded."""
    built = set()
    for t, names in ENCODED.items():
        table = catalog.table(t)
        assert {table.schema.columns[i].name for i in table._encoded} == set(names)
        built |= {name for name in names if not is_deferred(table, name)}
    return built


class Build:
    """A build function that counts its calls."""

    def __init__(self, values):
        self.values, self.calls = values, 0

    def __call__(self):
        self.calls += 1
        return self.values


def deferred_table(n=10, values=None):
    """``(k INT, v INT, note STR)`` with ``note`` deferred to ``note-<k>``."""
    table = Catalog().create(
        "t", Schema([("k", DataType.INT), ("v", DataType.INT), ("note", DataType.STR)])
    )
    table.insert_many([(k, k * k, "") for k in range(n)])
    build = Build([f"note-{k}" for k in range(n)] if values is None else values)
    table.defer("note", build)
    return table, build


NOTES = tuple(f"note-{k}" for k in range(10))


def test_projecting_other_columns_leaves_it_unbuilt():
    table, build = deferred_table()
    assert table.column("k") == tuple(range(10))
    # The first projection sealed every list buffer, not only its own column.
    assert [type(column) for column in table._columns[:2]] == [tuple, tuple]
    assert list(table.scan_pages(["v", "k"], page_rows=4))[0].rows[0] == (0, 0)
    assert table.column_slices(1, ["v"], page_rows=4) == [(16, 25, 36, 49)]
    assert len(table) == 10 and table.not_null(["note"]) == frozenset({0})
    assert build.calls == 0 and is_deferred(table, "note")


@pytest.mark.parametrize(
    "read, want",
    [
        (lambda t: t.column("note"), NOTES),
        (lambda t: t.row(3), (3, 9, "note-3")),
        (lambda t: list(t.rows())[9], (9, 81, "note-9")),
        (lambda t: list(t.scan_pages(None, page_rows=6))[1].rows[-1], (9, 81, "note-9")),
        (lambda t: [p.rows[0] for p in t.scan_pages(["note"], 8)], [("note-0",), ("note-8",)]),
        (lambda t: t.column_slices(2, ["k", "note"], 4), [(8, 9), ("note-8", "note-9")]),
    ],
    ids=["column", "row", "rows", "scan_pages(None)", "scan_pages(note)", "column_slices"],
)
def test_each_reader_builds_it_once(read, want):
    table, build = deferred_table()
    assert read(table) == want
    assert build.calls == 1 and not is_deferred(table, "note")
    assert table.column("note") == NOTES and type(table.column("note")) is tuple
    assert build.calls == 1


@pytest.mark.parametrize(
    "values, error",
    [
        (list(NOTES[:9]), StorageError),  # a row short
        (list(NOTES) + ["extra"], StorageError),
        (list(NOTES[:9]) + [None], StorageError),  # NULL: not_null() already said no
        (list(NOTES[:9]) + [9], SchemaError),  # an INT in a STR column
    ],
    ids=["short", "long", "null", "wrong-type"],
)
def test_a_bad_build_raises_and_leaves_the_table_readable(values, error):
    table, build = deferred_table(values=values)
    with pytest.raises(error):
        table.column("note")
    with pytest.raises(error):
        list(table.scan_pages(["k", "note"]))
    assert is_deferred(table, "note") and build.calls == 2
    assert len(table) == 10
    assert table.column("v") == tuple(k * k for k in range(10))
    assert table.column_slices(0, ["k"], page_rows=4) == [(0, 1, 2, 3)]


def test_ingest_after_deferral_keeps_every_value():
    table, build = deferred_table()
    table.column("k")  # a cached projection must not outlive the ingest
    table.insert_many([(10, 100, "note-10")])
    assert build.calls == 1 and len(table) == 11
    assert table.column_slices(0, ["k"], page_rows=16) == [tuple(range(11))]
    assert table.column("note") == NOTES + ("note-10",)
    assert list(table.rows())[-2:] == [(9, 81, "note-9"), (10, 100, "note-10")]


def test_deferring_again_replaces_a_built_column():
    table, build = deferred_table()
    assert table.column("note") == NOTES
    again = Build([f"again-{k}" for k in range(10)])
    table.defer("note", again)
    assert table.column_slices(0, ["note"], page_rows=2) == [("again-0", "again-1")]
    assert (build.calls, again.calls) == (1, 1)


def test_the_generator_defers_every_comment_and_the_pins_read_them():
    catalog = generate(0.0005, 2007)
    assert built_comments(catalog) == set()
    for table, name in COMMENTS.items():
        comments = catalog.table(table).column(name)
        assert len(comments) == len(catalog.table(table))
        assert all(type(c) is str and c for c in comments)
    assert built_comments(catalog) == set(COMMENTS)


def test_q13_builds_the_order_comments_only():
    catalog = generate(0.0005, 2007)
    query = build("q13", catalog)
    session = Database.open(catalog, RuntimeConfig())
    assert session.run(Query(plan=query.plan, pivot_op_id=query.pivot, name="q13")).rows
    assert built_comments(catalog) == {"orders"}


def _bench_workloads():
    sys.path.insert(0, os.path.join(REPO, "bench"))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", os.path.join(REPO, "bench", "workloads.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(os.path.join(REPO, "bench"))
    return module


def test_parallel_dop_never_builds_a_comment():
    workload = _bench_workloads().WORKLOADS["parallel_dop"](2007)
    workload.setup()
    workload.round(0)
    assert len(workload.ops) == 3
    assert workload.verify() == 0
    assert built_comments(workload.catalog) == set()
    assert built_encoded(workload.catalog) == {
        "l_suppkey", "l_quantity", "l_discount", "l_shipdate", "o_orderdate", "o_orderpriority",
    }
