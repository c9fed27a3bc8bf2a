"""Tests for CSV persistence (repro.storage.io)."""

import pytest

from repro.errors import StorageError
from repro.storage import (
    DataType,
    Schema,
    Table,
    load_catalog,
    load_table,
    save_catalog,
    save_table,
)
from repro.tpch.generator import generate


@pytest.fixture
def table():
    t = Table("items", Schema([
        ("id", DataType.INT),
        ("price", DataType.FLOAT),
        ("name", DataType.STR),
        ("shipped", DataType.DATE),
    ]))
    t.insert((1, 9.5, "plain", 730000))
    t.insert((2, -3.25, 'quoted,"tricky"', 730001))
    t.insert((3, 0.0, "unicode ✓ and spaces", 730002))
    return t


class TestTableRoundTrip:
    def test_round_trip_preserves_rows(self, table, tmp_path):
        path = save_table(table, tmp_path)
        loaded = load_table(path)
        assert loaded.name == table.name
        assert loaded.schema == table.schema
        assert list(loaded.rows()) == list(table.rows())

    def test_round_trip_empty_table(self, tmp_path):
        empty = Table("empty", Schema([("a", DataType.INT)]))
        loaded = load_table(save_table(empty, tmp_path))
        assert len(loaded) == 0
        assert loaded.schema == empty.schema

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="no such table"):
            load_table(tmp_path / "ghost.csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(StorageError, match="empty table file"):
            load_table(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a:int,b:uuid\n1,2\n")
        with pytest.raises(StorageError, match="bad column header"):
            load_table(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a:int,b:int\n1\n")
        with pytest.raises(StorageError, match="expected 2 fields"):
            load_table(path)

    def test_ragged_row_is_reported_by_its_line(self, tmp_path):
        """The rows are ingested in one call; the check still runs per line."""
        path = tmp_path / "bad.csv"
        path.write_text("a:int,b:int\n1,2\n3,4\n5\n6,7\n")
        with pytest.raises(StorageError, match=r"bad\.csv:4: expected 2 fields, got 1"):
            load_table(path)

    def test_null_round_trip(self, tmp_path):
        """Regression: NULLs are written as empty fields and used to
        crash the decoder (``int("")``) for INT/FLOAT/DATE columns."""
        t = Table("nullable", Schema([
            ("id", DataType.INT),
            ("price", DataType.FLOAT),
            ("name", DataType.STR),
            ("shipped", DataType.DATE),
        ]))
        t.insert((None, None, "row with nulls", None))
        t.insert((7, 1.25, "dense row", 730100))
        loaded = load_table(save_table(t, tmp_path))
        assert list(loaded.rows()) == [
            (None, None, "row with nulls", None),
            (7, 1.25, "dense row", 730100),
        ]

    def test_null_string_reloads_as_empty(self, tmp_path):
        """The documented lossy corner: CSV cannot tell a NULL string
        from an empty one, so NULL STR fields reload as ``""``."""
        t = Table("strs", Schema([("s", DataType.STR)]))
        t.insert((None,))
        t.insert(("",))
        loaded = load_table(save_table(t, tmp_path))
        assert list(loaded.rows()) == [("",), ("",)]


class TestCatalogRoundTrip:
    def test_round_trip_tpch_subset(self, tmp_path):
        catalog = generate(scale_factor=0.0003, seed=13)
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert set(loaded.names()) == set(catalog.names())
        for name in ("region", "customer", "lineitem"):
            assert list(loaded.table(name).rows()) == (
                list(catalog.table(name).rows())
            )

    def test_queries_run_on_reloaded_catalog(self, tmp_path):
        from repro.engine import execute_reference
        from repro.tpch.queries import build

        catalog = generate(scale_factor=0.0003, seed=13)
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        for name in ("q6", "q13"):
            original = execute_reference(build(name, catalog).plan, catalog)
            reloaded = execute_reference(build(name, loaded).plan, loaded)
            assert original == reloaded

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StorageError, match="no such directory"):
            load_catalog(tmp_path / "ghost")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(StorageError, match="no .csv tables"):
            load_catalog(tmp_path)
