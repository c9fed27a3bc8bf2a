"""Scalar expressions over tuples.

A tiny, explicit expression tree used by filters, projections and
aggregates. Expressions *compile* against a schema into plain Python
closures over column indices (so per-tuple evaluation is one function
call), and every expression has a deterministic ``signature()`` string
— two operators with equal signatures request the same work, which is
what packet merging needs to detect (Section 3.2: "the stage thread
searches the queue for other packets that request the same
operation").

SQL three-valued logic is simplified to Python semantics with ``None``
as NULL: comparisons involving ``None`` are false, arithmetic with
``None`` yields ``None``, and aggregates skip ``None`` inputs — enough
for the outer-join counting of TPC-H Q13.

Expressions also *batch-compile* (:func:`compile_batch`): the tree is
lowered to a generated list comprehension over column lists, so one
batch evaluates in a single interpreted loop instead of a closure call
per row per node. The lowering is told which input positions hold no
NULL (the plan's NOT NULL set, :func:`~repro.engine.plan.not_null`) and
emits an ``is None`` guard only for an operand that can be NULL
(:meth:`Expr.nullable`): a non-None literal, a NOT NULL column and
arithmetic over NOT NULL operands are read bare. The generated code
preserves the row semantics above value-for-value, type included;
only evaluation laziness differs (a guarded operand may be skipped
when its sibling is NULL), which is unobservable for the pure
expressions the tree models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import PlanError
from repro.storage.lru import WeightedLRU
from repro.storage.schema import Schema

__all__ = [
    "Expr",
    "compile_batch",
    "compile_output",
    "compile_predicate",
    "check_batch",
    "batch_source",
    "col",
    "lit",
    "add",
    "sub",
    "mul",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "between",
    "in_",
    "and_",
    "or_",
    "not_",
    "udf",
]

RowFn = Callable[[tuple], Any]

# A batch-compiled expression: (columns, n_rows) -> list of n values.
# Its ``reads`` attribute is the sorted column positions it reads.
BatchFn = Callable[[Sequence[Sequence[Any]], int], list]

_NO_FACTS: frozenset[int] = frozenset()


class _BatchCodegen:
    """Shared state of one :func:`compile_batch` lowering.

    Tracks which column indices the expression reads (they become the
    comprehension's loop variables ``_r<i>``), hands out unique walrus
    temp names, collects non-inlinable constants/callables into the
    generated function's namespace, and holds the positions of the
    schema that hold no NULL (``notnull``), whose reads need no guard.
    """

    def __init__(self, schema: Schema, notnull: frozenset[int] = _NO_FACTS) -> None:
        self.schema = schema
        self.notnull = notnull
        self.used: set[int] = set()
        self.env: dict[str, Any] = {}
        self._counter = 0

    def column(self, name: str) -> str:
        index = self.schema.index_of(name)
        self.used.add(index)
        return f"_r{index}"

    def temp(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def constant(self, value: Any) -> str:
        name = f"_k{len(self.env)}"
        self.env[name] = value
        return name

    def nullable(self, expr: Expr) -> bool:
        """Can ``expr`` be NULL over this schema's NOT NULL set?"""
        return expr.nullable(self.schema, self.notnull)

    def operand(self, expr: Expr) -> tuple[str | None, str]:
        """``(test, value)`` for an operand a NULL-safe node reads.

        ``test`` is the condition under which ``value`` is not NULL, or
        ``None`` when ``expr`` cannot be NULL. A column or literal is
        read as it is; anything else that needs a test is bound to a
        walrus temp by the test and read back through it.
        """
        source = expr._emit_batch(self)
        if not self.nullable(expr):
            return None, source
        if isinstance(expr, (ColumnRef, Literal)):
            return f"{source} is not None", source
        temp = self.temp()
        return f"({temp} := {source}) is not None", temp

    def loop(self, *lead: tuple[str, str]) -> str:
        """A ``for`` header binding every column read so far to its
        ``_r<i>`` row by row, after the ``(target, iterable)`` pairs in
        ``lead``; ``range(_n)`` when there is nothing to walk."""
        pairs = [*lead, *((f"_r{i}", f"_cols[{i}]") for i in sorted(self.used))]
        if not pairs:
            return "for _ in range(_n)"
        if len(pairs) == 1:
            return f"for {pairs[0][0]} in {pairs[0][1]}"
        targets = ", ".join(target for target, _ in pairs)
        sources = ", ".join(source for _, source in pairs)
        return f"for {targets} in zip({sources})"

    def define(self, source: str) -> dict:
        """Execute generated ``source``; returns its namespace."""
        namespace = dict(self.env)
        exec(compile(source, "<repro-batch-expr>", "exec"), namespace)
        return namespace


class Expr:
    """Base expression node."""

    def compile(self, schema: Schema) -> RowFn:
        raise NotImplementedError

    def nullable(self, schema: Schema, notnull: frozenset[int]) -> bool:
        """Can the value be NULL, when the positions of ``schema`` in
        ``notnull`` hold none? Unknown nodes can."""
        return True

    def is_boolean(self) -> bool:
        """Is the value always a ``bool`` (never NULL)?"""
        return False

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        """The node as a Python expression over ``_r<i>`` loop vars."""
        raise PlanError(f"expression {self.signature()} does not support batch compilation")

    def signature(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.signature()


# Compiled-batch memo: plans are rebuilt per execution but reuse the
# same (immutable) expression trees, so lowering + ``compile()`` would
# otherwise dominate short queries. Keyed by the expression node, the
# schema's column tuple and the NOT NULL set (all hashable), or by
# whatever else a generated function depends on (the hash aggregate's
# fold); entries whose expressions are unhashable (exotic Udf payloads)
# simply compile uncached. Least recently used entries go first past
# 4096, so an ad-hoc stream cannot push out the hot templated
# expressions compiled before it.
BATCH_CACHE = WeightedLRU(4096)


def generated(key: Any, build: Callable[[], Any]) -> Any:
    """``build()``, memoised in :data:`BATCH_CACHE` under ``key``."""
    try:
        cached = BATCH_CACHE.get(key)
    except TypeError:
        return build()
    if cached is None:
        cached = build()
        BATCH_CACHE.put(key, cached)
    return cached


def compile_batch(expr: Expr, schema: Schema, notnull: Iterable[int] = _NO_FACTS) -> BatchFn:
    """Lower ``expr`` to a function evaluating a whole column batch.

    The result takes ``(columns, n)`` — the batch's column lists and
    its row count — and returns the list of ``n`` values the row-wise
    ``expr.compile(schema)`` closure would produce row by row.
    ``notnull`` is the set of positions of ``schema`` that hold no NULL
    (:func:`~repro.engine.plan.not_null`): operands over them are read
    without an ``is None`` guard, so it must be a fact about the data,
    never a guess. The default guards every operand.
    """
    notnull = frozenset(notnull)
    return generated((expr, schema.columns, notnull), lambda: _lower(expr, schema, notnull))


def compile_output(expr: Expr, schema: Schema, notnull: Iterable[int] = _NO_FACTS) -> int | BatchFn:
    """How a projecting stage produces one output column: the input
    position of a bare column reference — the stage passes that column
    through uncopied — or else :func:`compile_batch`'s function."""
    if isinstance(expr, ColumnRef):
        return schema.index_of(expr.name)
    return compile_batch(expr, schema, notnull)


def compile_predicate(expr: Expr, schema: Schema, notnull: Iterable[int] = _NO_FACTS) -> BatchFn:
    """:func:`compile_batch` for a filter: the flags are always bools (a
    predicate that is not boolean is tested for truth, as ``all()``
    does), so ``flags.count(True)`` counts the rows it keeps."""
    return compile_batch(expr if expr.is_boolean() else and_(expr), schema, notnull)


def check_batch(expr: Expr, schema: Schema) -> None:
    """Raise what :func:`compile_batch` would — a
    :class:`~repro.errors.PlanError` for expression nodes outside this
    module's tree, a :class:`~repro.errors.SchemaError` for an unknown
    column — without compiling anything. Plan constructors call this,
    so a bad plan fails before anything is spawned; the stage compiles
    against the data's NOT NULL set when it is built."""
    expr._emit_batch(_BatchCodegen(schema))


def batch_source(expr: Expr, schema: Schema, notnull: Iterable[int] = _NO_FACTS) -> str:
    """The Python source :func:`compile_batch` generates for ``expr``."""
    return _source(_BatchCodegen(schema, frozenset(notnull)), expr)


def _source(gen: _BatchCodegen, expr: Expr) -> str:
    body = expr._emit_batch(gen)
    return f"def _batch(_cols, _n):\n    return [{body} {gen.loop()}]\n"


def _lower(expr: Expr, schema: Schema, notnull: frozenset[int]) -> BatchFn:
    gen = _BatchCodegen(schema, notnull)
    batch = gen.define(_source(gen, expr))["_batch"]
    batch.reads = tuple(sorted(gen.used))
    return batch


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str

    def compile(self, schema: Schema) -> RowFn:
        index = schema.index_of(self.name)
        return lambda row: row[index]

    def nullable(self, schema: Schema, notnull: frozenset[int]) -> bool:
        return schema.index_of(self.name) not in notnull

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        return gen.column(self.name)

    def signature(self) -> str:
        return f"col({self.name})"


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant. Equal only to a literal of the same value *and type*:
    ``lit(1)``, ``lit(1.0)`` and ``lit(True)`` compare equal in Python
    but evaluate to different types, so they must not share a memo
    entry."""

    value: Any

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Literal
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))

    def compile(self, schema: Schema) -> RowFn:
        value = self.value
        return lambda row: value

    def nullable(self, schema: Schema, notnull: frozenset[int]) -> bool:
        return self.value is None

    def is_boolean(self) -> bool:
        return type(self.value) is bool

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        value = self.value
        # repr() round-trips these exactly (finite floats included).
        if value is None or type(value) in (int, bool, str):
            return repr(value)
        if type(value) is float and math.isfinite(value):
            return repr(value)
        return gen.constant(value)

    def signature(self) -> str:
        return f"lit({self.value!r})"


class _Boolean(Expr):
    """A node whose value is always a ``bool``, never NULL."""

    def nullable(self, schema: Schema, notnull: frozenset[int]) -> bool:
        return False

    def is_boolean(self) -> bool:
        return True


_ARITH = {
    "add": lambda a, b: None if a is None or b is None else a + b,
    "sub": lambda a, b: None if a is None or b is None else a - b,
    "mul": lambda a, b: None if a is None or b is None else a * b,
}

_COMPARE = {
    "eq": lambda a, b: a is not None and b is not None and a == b,
    "ne": lambda a, b: a is not None and b is not None and a != b,
    "lt": lambda a, b: a is not None and b is not None and a < b,
    "le": lambda a, b: a is not None and b is not None and a <= b,
    "gt": lambda a, b: a is not None and b is not None and a > b,
    "ge": lambda a, b: a is not None and b is not None and a >= b,
}


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def compile(self, schema: Schema) -> RowFn:
        table = _ARITH if self.op in _ARITH else _COMPARE
        if self.op not in table:
            raise PlanError(f"unknown binary operator {self.op!r}")
        fn = table[self.op]
        lf = self.left.compile(schema)
        rf = self.right.compile(schema)
        return lambda row: fn(lf(row), rf(row))

    _SYMBOLS = {
        "add": "+",
        "sub": "-",
        "mul": "*",
        "eq": "==",
        "ne": "!=",
        "lt": "<",
        "le": "<=",
        "gt": ">",
        "ge": ">=",
    }

    def nullable(self, schema: Schema, notnull: frozenset[int]) -> bool:
        # A comparison is always a bool; arithmetic is NULL iff an operand is.
        return self.op in _ARITH and (
            self.left.nullable(schema, notnull) or self.right.nullable(schema, notnull)
        )

    def is_boolean(self) -> bool:
        return self.op in _COMPARE

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        if self.op not in self._SYMBOLS:
            raise PlanError(f"unknown binary operator {self.op!r}")
        test_a, a = gen.operand(self.left)
        test_b, b = gen.operand(self.right)
        value = f"{a} {self._SYMBOLS[self.op]} {b}"
        tests = [test for test in (test_a, test_b) if test is not None]
        if not tests:
            return f"({value})"
        if self.op in _ARITH:
            return f"({value} if {' and '.join(tests)} else None)"
        return f"({' and '.join([*tests, value])})"

    def signature(self) -> str:
        return f"{self.op}({self.left.signature()},{self.right.signature()})"


@dataclass(frozen=True)
class Between(_Boolean):
    """Inclusive range check, NULL-safe (NULL is never between)."""

    operand: Expr
    low: Expr
    high: Expr

    def compile(self, schema: Schema) -> RowFn:
        vf = self.operand.compile(schema)
        lo = self.low.compile(schema)
        hi = self.high.compile(schema)

        def run(row: tuple) -> bool:
            value = vf(row)
            return value is not None and lo(row) <= value <= hi(row)

        return run

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        test, value = gen.operand(self.operand)
        bounds = f"{self.low._emit_batch(gen)} <= {value} <= {self.high._emit_batch(gen)}"
        return f"({bounds})" if test is None else f"({test} and {bounds})"

    def signature(self) -> str:
        return (
            f"between({self.operand.signature()},{self.low.signature()},"
            f"{self.high.signature()})"
        )


@dataclass(frozen=True)
class InSet(_Boolean):
    operand: Expr
    values: tuple

    def compile(self, schema: Schema) -> RowFn:
        vf = self.operand.compile(schema)
        values = frozenset(self.values)
        return lambda row: vf(row) in values

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        v = self.operand._emit_batch(gen)
        return f"({v} in {gen.constant(frozenset(self.values))})"

    def signature(self) -> str:
        return f"in({self.operand.signature()},{sorted(map(repr, self.values))})"


@dataclass(frozen=True)
class BooleanOp(_Boolean):
    op: str  # "and" | "or"
    operands: tuple[Expr, ...]

    def compile(self, schema: Schema) -> RowFn:
        fns = [operand.compile(schema) for operand in self.operands]
        if self.op == "and":
            return lambda row: all(fn(row) for fn in fns)
        if self.op == "or":
            return lambda row: any(fn(row) for fn in fns)
        raise PlanError(f"unknown boolean operator {self.op!r}")

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        if self.op not in ("and", "or"):
            raise PlanError(f"unknown boolean operator {self.op!r}")
        joined = f" {self.op} ".join(o._emit_batch(gen) for o in self.operands)
        # and/or short-circuit as all()/any() do and yield one of their
        # operands: a bool already when every operand is one.
        if all(o.is_boolean() for o in self.operands):
            return f"({joined})"
        return f"bool({joined})"

    def signature(self) -> str:
        inner = ",".join(operand.signature() for operand in self.operands)
        return f"{self.op}({inner})"


@dataclass(frozen=True)
class Not(_Boolean):
    operand: Expr

    def compile(self, schema: Schema) -> RowFn:
        fn = self.operand.compile(schema)
        return lambda row: not fn(row)

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        return f"(not {self.operand._emit_batch(gen)})"

    def signature(self) -> str:
        return f"not({self.operand.signature()})"


@dataclass(frozen=True)
class Udf(Expr):
    """A named pure function of one or more sub-expressions.

    The name *is* the sharing identity: two Udf nodes with the same
    name and operands are assumed to request identical work. Used for
    predicates the expression language does not cover (e.g. Q13's
    ``LIKE '%special%requests%'``). Its value is always taken to be
    nullable and non-boolean: the function is opaque.
    """

    name: str
    fn: Callable[..., Any]
    operands: tuple[Expr, ...]

    def compile(self, schema: Schema) -> RowFn:
        fns = [operand.compile(schema) for operand in self.operands]
        fn = self.fn
        return lambda row: fn(*(f(row) for f in fns))

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        args = ", ".join(o._emit_batch(gen) for o in self.operands)
        return f"{gen.constant(self.fn)}({args})"

    def signature(self) -> str:
        inner = ",".join(operand.signature() for operand in self.operands)
        return f"udf:{self.name}({inner})"


# -- convenience constructors ------------------------------------------------


def col(name: str) -> Expr:
    return ColumnRef(name)


def lit(value: Any) -> Expr:
    return Literal(value)


def _wrap(value: Any) -> Expr:
    return value if isinstance(value, Expr) else Literal(value)


def add(left, right) -> Expr:
    return BinaryOp("add", _wrap(left), _wrap(right))


def sub(left, right) -> Expr:
    return BinaryOp("sub", _wrap(left), _wrap(right))


def mul(left, right) -> Expr:
    return BinaryOp("mul", _wrap(left), _wrap(right))


def eq(left, right) -> Expr:
    return BinaryOp("eq", _wrap(left), _wrap(right))


def ne(left, right) -> Expr:
    return BinaryOp("ne", _wrap(left), _wrap(right))


def lt(left, right) -> Expr:
    return BinaryOp("lt", _wrap(left), _wrap(right))


def le(left, right) -> Expr:
    return BinaryOp("le", _wrap(left), _wrap(right))


def gt(left, right) -> Expr:
    return BinaryOp("gt", _wrap(left), _wrap(right))


def ge(left, right) -> Expr:
    return BinaryOp("ge", _wrap(left), _wrap(right))


def between(operand, low, high) -> Expr:
    return Between(_wrap(operand), _wrap(low), _wrap(high))


def in_(operand, values: Sequence[Any]) -> Expr:
    return InSet(_wrap(operand), tuple(values))


def and_(*operands) -> Expr:
    if not operands:
        raise PlanError("and_() needs at least one operand")
    return BooleanOp("and", tuple(_wrap(o) for o in operands))


def or_(*operands) -> Expr:
    if not operands:
        raise PlanError("or_() needs at least one operand")
    return BooleanOp("or", tuple(_wrap(o) for o in operands))


def not_(operand) -> Expr:
    return Not(_wrap(operand))


def udf(name: str, fn: Callable[..., Any], *operands) -> Expr:
    return Udf(name, fn, tuple(_wrap(o) for o in operands))
