"""Relational schemas for the in-memory storage layer.

A :class:`Schema` is an ordered list of typed :class:`Column`
definitions. The storage layer is deliberately simple — enough to host
a memory-resident TPC-H database and feed the staged engine — but it
validates types on ingest so that query bugs surface as schema errors
rather than silent wrong answers.

Supported types: ``INT``, ``FLOAT``, ``STR`` and ``DATE``. Dates are
stored as proleptic-Gregorian ordinals (``datetime.date.toordinal``)
so predicates are integer comparisons, mirroring how a real engine
stores DATE columns as integers.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Sequence

from repro.errors import SchemaError

__all__ = ["DataType", "Column", "Schema", "date_to_ordinal", "ordinal_to_date"]


class DataType(Enum):
    """Column data types, with ingestion-time validation rules."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    DATE = "date"

    def validate(self, value: Any, column: str) -> Any:
        """Check/coerce one value; returns the stored representation.

        ``None`` is SQL NULL and is valid for every type — outer joins
        produce NULL-padded rows and aggregates skip NULL inputs, so
        storage must be able to hold (and round-trip) them.
        """
        if value is None:
            return None
        if self is DataType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"column {column!r} expects INT, got {value!r}")
            return value
        if self is DataType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"column {column!r} expects FLOAT, got {value!r}")
            return float(value)
        if self is DataType.STR:
            if not isinstance(value, str):
                raise SchemaError(f"column {column!r} expects STR, got {value!r}")
            return value
        if self is DataType.DATE:
            if isinstance(value, _dt.date):
                return value.toordinal()
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(
                    f"column {column!r} expects DATE (date or ordinal int), got {value!r}"
                )
            return value
        raise SchemaError(f"unknown data type {self!r}")  # pragma: no cover


# The exact Python type each DataType stores. A column whose values are
# all of this type (or None) needs no per-value check and no coercion;
# a subclass (``bool`` under ``int``) is not exact and takes the slow path.
_STORED_TYPE = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.STR: str,
    DataType.DATE: int,
}
_NULL_TYPE = type(None)


def date_to_ordinal(year: int, month: int, day: int) -> int:
    """Convenience: a calendar date as its stored ordinal."""
    return _dt.date(year, month, day).toordinal()


def ordinal_to_date(ordinal: int) -> _dt.date:
    return _dt.date.fromordinal(ordinal)


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")


class Schema:
    """An ordered, named collection of columns."""

    def __init__(self, columns: Iterable[Column | tuple[str, DataType]]) -> None:
        resolved: list[Column] = []
        for c in columns:
            if isinstance(c, Column):
                resolved.append(c)
            else:
                name, dtype = c
                resolved.append(Column(name, dtype))
        if not resolved:
            raise SchemaError("schema must have at least one column")
        names = [c.name for c in resolved]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self.columns: tuple[Column, ...] = tuple(resolved)
        self._index = {c.name: i for i, c in enumerate(self.columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self.columns)
        return f"Schema({cols})"

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index_of(self, name: str) -> int:
        """Ordinal position of a column; raises SchemaError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}; schema has {self.names()}") from None

    def dtype_of(self, name: str) -> DataType:
        return self.columns[self.index_of(name)].dtype

    def validate_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Validate/coerce a full row to its stored representation."""
        if len(row) != len(self.columns):
            raise SchemaError(f"row has {len(row)} values, schema expects {len(self.columns)}")
        return tuple(col.dtype.validate(value, col.name) for col, value in zip(self.columns, row))

    def validate_column(self, index: int, values: Sequence[Any]) -> Sequence[Any]:
        """Validate/coerce all of one column's values at once.

        The set of types present is taken in C; when it is the column's
        stored type alone (NULLs aside) ``values`` is returned as it
        came. Only a column that needs coercion (ints in ``FLOAT``,
        ``date`` objects in ``DATE``) or holds a bad value (a ``bool``
        in ``INT``, a ``str`` in ``FLOAT``) is walked value by value
        through :meth:`DataType.validate`, which coerces and raises
        exactly as :meth:`validate_row` does.
        """
        column = self.columns[index]
        kinds = set(map(type, values))
        kinds.discard(_NULL_TYPE)
        if kinds <= {_STORED_TYPE[column.dtype]}:
            return values
        validate, name = column.dtype.validate, column.name
        return [validate(value, name) for value in values]

    def validate_rows(self, rows: Sequence[Sequence[Any]]) -> list[Sequence[Any]]:
        """Transpose ``rows`` once and validate column-wise.

        Returns one sequence of stored values per schema column. The
        arity of every row is checked before any value is (the first
        row of the wrong length is the one reported); values are then
        checked a column at a time, so with several bad values the
        error names the first bad *column*, not the first bad row.
        """
        width = len(self.columns)
        if set(map(len, rows)) - {width}:
            bad = next(row for row in rows if len(row) != width)
            raise SchemaError(f"row has {len(bad)} values, schema expects {width}")
        return [self.validate_column(i, values) for i, values in enumerate(zip(*rows))]

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema with the given columns, in the given order."""
        return Schema([self.columns[self.index_of(n)] for n in names])
