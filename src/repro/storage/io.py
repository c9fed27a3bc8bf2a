"""CSV persistence for the in-memory database.

dbgen writes ``.tbl`` pipe-delimited files; this module provides the
equivalent round-trip so a generated catalog can be saved once and
reloaded across processes (or inspected with standard tools). Schemas
travel in a sidecar header line, so a directory is self-describing.

Format: one ``<table>.csv`` per table. Line 1 is the header
``name:dtype`` per column; subsequent lines are rows. Strings are
escaped via :mod:`csv`; dates are stored as ordinals (ints), exactly
as in memory. NULLs are written as empty fields and decode back to
``None`` for INT/FLOAT/DATE columns; for STR columns an empty field is
indistinguishable from an empty string, so NULL strings reload as
``""`` (the one lossy corner of the round-trip).
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.errors import StorageError
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, DataType, Schema
from repro.storage.table import Table

__all__ = ["save_catalog", "load_catalog", "save_table", "load_table"]


def _encode(value) -> str:
    return "" if value is None else str(value)


def _decode(text: str, dtype: DataType):
    """Inverse of :func:`_encode` for one field.

    NULLs are written as empty fields, so an empty INT/FLOAT/DATE field
    decodes back to ``None`` (it used to crash in ``int("")``). STR is
    the one lossy case: CSV cannot distinguish an empty field from an
    empty string, so a NULL string reloads as ``""``.
    """
    if dtype is DataType.INT or dtype is DataType.DATE:
        return None if text == "" else int(text)
    if dtype is DataType.FLOAT:
        return None if text == "" else float(text)
    return text


def save_table(table: Table, directory: Path) -> Path:
    """Write one table as ``<directory>/<name>.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{table.name}.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(f"{c.name}:{c.dtype.value}" for c in table.schema.columns)
        for row in table.rows():
            writer.writerow(_encode(v) for v in row)
    return path


def load_table(path: Path) -> Table:
    """Read one table written by :func:`save_table`.

    Lines are checked and decoded one by one (a ragged one raises
    ``path:line: expected N fields``), then ingested in one
    :meth:`~repro.storage.table.Table.insert_many`.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"no such table file: {path}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise StorageError(f"empty table file: {path}") from None
        columns = []
        for entry in header:
            name, _, dtype_text = entry.partition(":")
            try:
                dtype = DataType(dtype_text)
            except ValueError:
                raise StorageError(f"{path}: bad column header {entry!r}") from None
            columns.append(Column(name, dtype))
        table = Table(path.stem, Schema(columns))
        dtypes = [column.dtype for column in columns]
        rows = []
        for line_no, fields in enumerate(reader, start=2):
            if len(fields) != len(dtypes):
                raise StorageError(
                    f"{path}:{line_no}: expected {len(dtypes)} fields, got {len(fields)}"
                )
            rows.append(tuple(map(_decode, fields, dtypes)))
    table.insert_many(rows)
    return table


def save_catalog(catalog: Catalog, directory: Path) -> list[Path]:
    """Write every table of the catalog; returns the file paths."""
    return [save_table(table, Path(directory)) for table in catalog]


def load_catalog(directory: Path) -> Catalog:
    """Load every ``*.csv`` in a directory into a fresh catalog."""
    directory = Path(directory)
    if not directory.is_dir():
        raise StorageError(f"no such directory: {directory}")
    catalog = Catalog()
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise StorageError(f"no .csv tables found in {directory}")
    for path in paths:
        catalog.add(load_table(path))
    return catalog
