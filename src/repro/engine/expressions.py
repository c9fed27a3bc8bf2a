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
per row per node. The generated code preserves the row semantics above
value-for-value; only evaluation laziness differs (a guarded operand
may be skipped when its sibling is NULL), which is unobservable for
the pure expressions the tree models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import PlanError
from repro.storage.lru import WeightedLRU
from repro.storage.schema import Schema

__all__ = [
    "Expr",
    "compile_batch",
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
BatchFn = Callable[[Sequence[Sequence[Any]], int], list]


class _BatchCodegen:
    """Shared state of one :func:`compile_batch` lowering.

    Tracks which column indices the expression reads (they become the
    comprehension's loop variables ``_r<i>``), hands out unique walrus
    temp names, and collects non-inlinable constants/callables into the
    generated function's namespace.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
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


class Expr:
    """Base expression node."""

    def compile(self, schema: Schema) -> RowFn:
        raise NotImplementedError

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        """The node as a Python expression over ``_r<i>`` loop vars."""
        raise PlanError(
            f"expression {self.signature()} does not support batch compilation"
        )

    def signature(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.signature()


# Compiled-batch memo: plans are rebuilt per execution but reuse the
# same (immutable) expression trees, so lowering + ``compile()`` would
# otherwise dominate short queries. Keyed by the expression node and
# the schema's column tuple (both hashable); entries whose expressions
# are unhashable (exotic Udf payloads) simply compile uncached. Least
# recently used entries go first past 4096, so an ad-hoc stream cannot
# push out the hot templated expressions compiled before it.
BATCH_CACHE = WeightedLRU(4096)


def compile_batch(expr: Expr, schema: Schema) -> BatchFn:
    """Lower ``expr`` to a function evaluating a whole column batch.

    The result takes ``(columns, n)`` — the batch's column lists and
    its row count — and returns the list of ``n`` values the row-wise
    ``expr.compile(schema)`` closure would produce row by row. Raises
    :class:`~repro.errors.PlanError` for expression nodes outside this
    module's tree — plan constructors call this to validate, so such a
    node is rejected before anything is spawned.
    """
    try:
        cache_key = (expr, schema.columns)
        cached = BATCH_CACHE.get(cache_key)
    except TypeError:
        cache_key = None
        cached = None
    if cached is not None:
        return cached
    gen = _BatchCodegen(schema)
    body = expr._emit_batch(gen)
    used = sorted(gen.used)
    if not used:
        loop = "for _ in range(_n)"
    elif len(used) == 1:
        loop = f"for _r{used[0]} in _cols[{used[0]}]"
    else:
        targets = ", ".join(f"_r{i}" for i in used)
        sources = ", ".join(f"_cols[{i}]" for i in used)
        loop = f"for {targets} in zip({sources})"
    source = f"def _batch(_cols, _n):\n    return [({body}) {loop}]\n"
    namespace = dict(gen.env)
    exec(compile(source, "<repro-batch-expr>", "exec"), namespace)
    fn = namespace["_batch"]
    if cache_key is not None:
        BATCH_CACHE.put(cache_key, fn)
    return fn


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str

    def compile(self, schema: Schema) -> RowFn:
        index = schema.index_of(self.name)
        return lambda row: row[index]

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        return gen.column(self.name)

    def signature(self) -> str:
        return f"col({self.name})"


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def compile(self, schema: Schema) -> RowFn:
        value = self.value
        return lambda row: value

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
        "add": "+", "sub": "-", "mul": "*",
        "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    }

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        if self.op not in self._SYMBOLS:
            raise PlanError(f"unknown binary operator {self.op!r}")
        a = self.left._emit_batch(gen)
        b = self.right._emit_batch(gen)
        ta, tb = gen.temp(), gen.temp()
        sym = self._SYMBOLS[self.op]
        if self.op in _ARITH:
            return (
                f"(None if ({ta} := {a}) is None or ({tb} := {b}) is None"
                f" else {ta} {sym} {tb})"
            )
        return (
            f"(({ta} := {a}) is not None and ({tb} := {b}) is not None"
            f" and {ta} {sym} {tb})"
        )

    def signature(self) -> str:
        return f"{self.op}({self.left.signature()},{self.right.signature()})"


@dataclass(frozen=True)
class Between(Expr):
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
        v = self.operand._emit_batch(gen)
        lo = self.low._emit_batch(gen)
        hi = self.high._emit_batch(gen)
        t = gen.temp()
        return f"(({t} := {v}) is not None and ({lo}) <= {t} <= ({hi}))"

    def signature(self) -> str:
        return (
            f"between({self.operand.signature()},{self.low.signature()},"
            f"{self.high.signature()})"
        )


@dataclass(frozen=True)
class InSet(Expr):
    operand: Expr
    values: tuple

    def compile(self, schema: Schema) -> RowFn:
        vf = self.operand.compile(schema)
        values = frozenset(self.values)
        return lambda row: vf(row) in values

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        v = self.operand._emit_batch(gen)
        return f"(({v}) in {gen.constant(frozenset(self.values))})"

    def signature(self) -> str:
        return f"in({self.operand.signature()},{sorted(map(repr, self.values))})"


@dataclass(frozen=True)
class BooleanOp(Expr):
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
        parts = [f"({o._emit_batch(gen)})" for o in self.operands]
        # bool() matches all()/any(); and/or short-circuit identically.
        return f"bool({f' {self.op} '.join(parts)})"

    def signature(self) -> str:
        inner = ",".join(operand.signature() for operand in self.operands)
        return f"{self.op}({inner})"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def compile(self, schema: Schema) -> RowFn:
        fn = self.operand.compile(schema)
        return lambda row: not fn(row)

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        return f"(not ({self.operand._emit_batch(gen)}))"

    def signature(self) -> str:
        return f"not({self.operand.signature()})"


@dataclass(frozen=True)
class Udf(Expr):
    """A named pure function of one or more sub-expressions.

    The name *is* the sharing identity: two Udf nodes with the same
    name and operands are assumed to request identical work. Used for
    predicates the expression language does not cover (e.g. Q13's
    ``LIKE '%special%requests%'``).
    """

    name: str
    fn: Callable[..., Any]
    operands: tuple[Expr, ...]

    def compile(self, schema: Schema) -> RowFn:
        fns = [operand.compile(schema) for operand in self.operands]
        fn = self.fn
        return lambda row: fn(*(f(row) for f in fns))

    def _emit_batch(self, gen: _BatchCodegen) -> str:
        args = ", ".join(f"({o._emit_batch(gen)})" for o in self.operands)
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
