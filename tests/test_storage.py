"""Unit tests for the in-memory storage layer (repro.storage)."""

import datetime

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage import (
    Catalog,
    Column,
    DataType,
    Page,
    Schema,
    Table,
    date_to_ordinal,
    ordinal_to_date,
    paginate,
)


@pytest.fixture
def schema():
    return Schema([
        ("id", DataType.INT),
        ("price", DataType.FLOAT),
        ("name", DataType.STR),
        ("shipped", DataType.DATE),
    ])


@pytest.fixture
def table(schema):
    t = Table("items", schema)
    for i in range(10):
        t.insert((i, float(i) * 1.5, f"item{i}", 730000 + i))
    return t


class TestDataType:
    def test_int_accepts_int(self):
        assert DataType.INT.validate(5, "c") == 5

    def test_int_rejects_bool(self):
        with pytest.raises(SchemaError):
            DataType.INT.validate(True, "c")

    def test_int_rejects_float(self):
        with pytest.raises(SchemaError):
            DataType.INT.validate(5.0, "c")

    def test_float_coerces_int(self):
        value = DataType.FLOAT.validate(5, "c")
        assert value == 5.0
        assert isinstance(value, float)

    def test_str_rejects_number(self):
        with pytest.raises(SchemaError):
            DataType.STR.validate(5, "c")

    def test_date_accepts_date_object(self):
        d = datetime.date(1994, 1, 1)
        assert DataType.DATE.validate(d, "c") == d.toordinal()

    def test_date_accepts_ordinal(self):
        assert DataType.DATE.validate(728294, "c") == 728294

    def test_date_rejects_string(self):
        with pytest.raises(SchemaError):
            DataType.DATE.validate("1994-01-01", "c")

    def test_date_helpers_roundtrip(self):
        ordinal = date_to_ordinal(1994, 1, 1)
        assert ordinal_to_date(ordinal) == datetime.date(1994, 1, 1)


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("a", DataType.INT), ("a", DataType.STR)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_invalid_column_name(self):
        with pytest.raises(SchemaError):
            Column("not a name", DataType.INT)

    def test_index_of(self, schema):
        assert schema.index_of("price") == 1
        with pytest.raises(SchemaError, match="unknown column"):
            schema.index_of("ghost")

    def test_dtype_of(self, schema):
        assert schema.dtype_of("shipped") is DataType.DATE

    def test_validate_row_length_mismatch(self, schema):
        with pytest.raises(SchemaError, match="expects 4"):
            schema.validate_row((1, 2.0, "x"))

    def test_project_preserves_order(self, schema):
        projected = schema.project(["name", "id"])
        assert projected.names() == ("name", "id")
        assert projected.dtype_of("id") is DataType.INT

    def test_equality(self, schema):
        other = Schema(list(schema.columns))
        assert schema == other

    def test_contains(self, schema):
        assert "id" in schema
        assert "ghost" not in schema


class TestTable:
    def test_insert_and_len(self, table):
        assert len(table) == 10

    def test_row_roundtrip(self, table):
        assert table.row(3) == (3, 4.5, "item3", 730003)

    def test_row_out_of_range(self, table):
        with pytest.raises(StorageError):
            table.row(10)

    def test_insert_validates(self, table):
        with pytest.raises(SchemaError):
            table.insert(("not-an-int", 1.0, "x", 730000))

    def test_column_access(self, table):
        assert list(table.column("id")) == list(range(10))

    def test_rows_iteration(self, table):
        rows = list(table.rows())
        assert len(rows) == 10
        assert rows[0] == (0, 0.0, "item0", 730000)

    def test_scan_pages_all_columns(self, table):
        pages = list(table.scan_pages(page_rows=4))
        assert [len(p) for p in pages] == [4, 4, 2]
        assert pages[0].rows[0] == (0, 0.0, "item0", 730000)

    def test_scan_pages_projection(self, table):
        pages = list(table.scan_pages(columns=["name", "id"], page_rows=100))
        assert pages[0].rows[0] == ("item0", 0)

    def test_scan_pages_invalid_page_rows(self, table):
        with pytest.raises(StorageError):
            list(table.scan_pages(page_rows=0))

    def test_scan_empty_table(self, schema):
        t = Table("empty", schema)
        assert list(t.scan_pages()) == []

    def test_projected_schema(self, table):
        assert table.projected_schema(["id"]).names() == ("id",)
        assert table.projected_schema(None) is table.schema

    def test_empty_name_rejected(self, schema):
        with pytest.raises(StorageError):
            Table("", schema)

    def test_insert_many(self, schema):
        t = Table("bulk", schema)
        t.insert_many([(1, 1.0, "a", 730000), (2, 2.0, "b", 730001)])
        assert len(t) == 2

    def test_column_is_a_tuple_at_every_point_of_a_tables_life(self, schema):
        t = Table("life", schema)
        assert t.column("id") == ()
        t.insert((1, 1.0, "a", 730000))
        assert t.column("id") == (1,)
        pages = list(t.scan_pages(page_rows=4))
        assert [list(page.rows) for page in pages] == [[(1, 1.0, "a", 730000)]]
        assert t.column("id") == (1,)
        assert all(type(c) is tuple for c in t.column_slices(0, page_rows=4))
        t.insert_many(iter([(2, 2, "b", datetime.date(1999, 9, 9))]))  # any iterable; coerced
        assert t.column("id") == (1, 2) and t.column("price") == (1.0, 2.0)
        assert t.row(1) == (2, 2.0, "b", datetime.date(1999, 9, 9).toordinal())
        assert all(type(t.column(name)) is tuple for name in schema.names())

    def test_insert_many_is_all_or_nothing(self, table):
        """A bad row in the middle used to leave the rows before it."""
        before = list(table.rows())
        good = (10, 1.0, "ok", 730010)
        with pytest.raises(SchemaError, match="column 'price' expects FLOAT, got 'dear'"):
            table.insert_many([good, (11, "dear", "bad", 730011), good])
        with pytest.raises(SchemaError, match="row has 3 values, schema expects 4"):
            table.insert_many([good, (11, 1.0, "short")])
        assert list(table.rows()) == before


class TestPage:
    def test_empty_page_rejected(self):
        with pytest.raises(StorageError):
            Page([])

    def test_iteration(self):
        p = Page([(1,), (2,)])
        assert list(p) == [(1,), (2,)]
        assert len(p) == 2

    def test_paginate_batches(self):
        pages = list(paginate(((i,) for i in range(7)), page_rows=3))
        assert [len(p) for p in pages] == [3, 3, 1]

    def test_paginate_invalid_size(self):
        with pytest.raises(StorageError):
            list(paginate([(1,)], page_rows=0))

    def test_paginate_empty_stream(self):
        assert list(paginate(iter(()))) == []


class TestCatalog:
    def test_create_and_lookup(self, schema):
        cat = Catalog()
        t = cat.create("items", schema)
        assert cat.table("items") is t
        assert "items" in cat
        assert len(cat) == 1

    def test_duplicate_create_rejected(self, schema):
        cat = Catalog()
        cat.create("items", schema)
        with pytest.raises(StorageError):
            cat.create("items", schema)

    def test_add_existing_table(self, schema):
        cat = Catalog()
        t = Table("items", schema)
        cat.add(t)
        with pytest.raises(StorageError):
            cat.add(t)

    def test_unknown_table(self):
        with pytest.raises(StorageError, match="unknown table"):
            Catalog().table("ghost")

    def test_total_rows(self, schema, table):
        cat = Catalog()
        cat.add(table)
        assert cat.total_rows() == 10
