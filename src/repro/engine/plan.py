"""Physical query plans for the staged engine.

A :class:`PlanNode` tree describes the operators of one query. Every
node carries:

* its output :class:`~repro.storage.schema.Schema` (computed by the
  constructors below, so schema errors surface at plan-build time),
* a structural ``signature`` — two nodes with equal signatures request
  identical work, which is the engine's merge test (the pivot and
  everything below it must match for two packets to share),
* a stable ``op_id`` used to address pivots and name simulator tasks.

Constructors: :func:`scan`, :func:`filter_`, :func:`project`,
:func:`aggregate`, :func:`sort`, :func:`hash_join`,
:func:`nested_loop_join`, :func:`merge_join`.

A node's *NOT NULL set* — the output positions that can hold no NULL —
is not part of the node: it depends on the data, so :func:`not_null`
derives it from the tables' ingest facts when a stage is built, and
the stage compiles its kernels against it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.errors import PlanError
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, DataType, Schema
from repro.engine.expressions import Expr, check_batch

__all__ = [
    "PlanNode",
    "AggSpec",
    "scan",
    "filter_",
    "project",
    "aggregate",
    "sort",
    "limit",
    "hash_join",
    "nested_loop_join",
    "merge_join",
    "not_null",
]

JOIN_TYPES = ("inner", "semi", "anti", "left")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``func(expr) AS name``.

    ``func`` is one of ``sum``, ``count``, ``min``, ``max``, ``avg``.
    ``expr = None`` means ``count(*)``; for every other function an
    expression is required. NULL inputs are skipped, so
    ``count(expr)`` counts non-NULL values (TPC-H Q13 relies on this).
    """

    func: str
    name: str
    expr: Optional[Expr] = None

    def __post_init__(self) -> None:
        if self.func not in ("sum", "count", "min", "max", "avg"):
            raise PlanError(f"unknown aggregate function {self.func!r}")
        if self.func != "count" and self.expr is None:
            raise PlanError(f"aggregate {self.func!r} requires an expression")

    def signature(self) -> str:
        inner = "*" if self.expr is None else self.expr.signature()
        return f"{self.func}({inner})as{self.name}"

    def output_dtype(self) -> DataType:
        if self.func == "count":
            return DataType.INT
        return DataType.FLOAT


@dataclass(frozen=True)
class PlanNode:
    """One physical operator in a query plan."""

    kind: str
    params: Mapping[str, Any]
    children: tuple["PlanNode", ...]
    schema: Schema
    signature: str
    op_id: str

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, op_id: str) -> "PlanNode":
        for node in self.walk():
            if node.op_id == op_id:
                return node
        raise PlanError(f"no operator with op_id {op_id!r} in plan")

    def __repr__(self) -> str:
        return f"PlanNode({self.kind}:{self.op_id})"


def _auto_id(kind: str, signature: str) -> str:
    digest = hashlib.sha1(signature.encode("utf-8")).hexdigest()[:8]
    return f"{kind}@{digest}"


def _node(
    kind: str,
    params: dict,
    children: Sequence[PlanNode],
    schema: Schema,
    signature: str,
    op_id: Optional[str],
) -> PlanNode:
    return PlanNode(
        kind=kind,
        params=dict(params),
        children=tuple(children),
        schema=schema,
        signature=signature,
        op_id=op_id or _auto_id(kind, signature),
    )


def scan(
    catalog: Catalog,
    table: str,
    columns: Optional[Sequence[str]] = None,
    predicate: Optional[Expr] = None,
    outputs: Optional[Sequence[tuple[str, Expr, DataType]]] = None,
    op_id: Optional[str] = None,
    cost_factor: float = 1.0,
) -> PlanNode:
    """Sequential scan of a base table — optionally a *fused* scan.

    ``columns`` projects storage columns; ``predicate`` and ``outputs``
    fuse a filter and a projection into the scan stage, matching the
    paper's query structure (its TPC-H Q6 "consists of two pipeline
    stages — table scan and aggregation": the scan stage evaluates the
    predicates and produces result tuples). A fused scan is the
    natural sharing pivot for scan-heavy queries: its per-consumer
    output of qualifying tuples is the model's *s*.

    ``cost_factor`` scales the fused predicate/projection work per
    tuple — a cost hint for expression-heavy scan stages (e.g. Q1's
    decimal arithmetic), matching how optimizers charge expression
    complexity.
    """
    if cost_factor <= 0:
        raise PlanError(f"cost_factor must be > 0, got {cost_factor!r}")
    tbl = catalog.table(table)
    base_schema = tbl.projected_schema(
        list(columns) if columns is not None else None
    )
    cols = tuple(base_schema.names())
    sig_parts = [f"scan({table};{','.join(cols)}"]
    if predicate is not None:
        check_batch(predicate, base_schema)
        sig_parts.append(f";where={predicate.signature()}")
    if outputs is not None:
        if not outputs:
            raise PlanError("fused scan outputs must be non-empty if given")
        for _, expr, _ in outputs:
            check_batch(expr, base_schema)
        schema = Schema([Column(n, d) for n, _, d in outputs])
        sig_parts.append(
            ";emit=" + ",".join(f"{n}={e.signature()}" for n, e, _ in outputs)
        )
    else:
        schema = base_schema
    if cost_factor != 1.0:
        sig_parts.append(f";x{cost_factor}")
    signature = "".join(sig_parts) + ")"
    params = {
        "table": table,
        "columns": cols,
        "predicate": predicate,
        "outputs": tuple(outputs) if outputs is not None else None,
        "cost_factor": cost_factor,
    }
    return _node("scan", params, (), schema, signature, op_id)


def filter_(
    child: PlanNode,
    predicate: Expr,
    op_id: Optional[str] = None,
    cost_factor: float = 1.0,
) -> PlanNode:
    """Row filter; output schema equals the input schema.

    ``cost_factor`` scales the per-tuple predicate cost — a cost hint
    for expensive predicates (string matching, UDFs) that real
    optimizers model the same way.
    """
    if cost_factor <= 0:
        raise PlanError(f"cost_factor must be > 0, got {cost_factor!r}")
    # Validate early: column references, and that the stage can lower
    # every node — so a bad plan fails here, before anything is spawned.
    check_batch(predicate, child.schema)
    signature = (
        f"filter({predicate.signature()};x{cost_factor};{child.signature})"
    )
    return _node(
        "filter",
        {"predicate": predicate, "cost_factor": cost_factor},
        (child,),
        child.schema,
        signature,
        op_id,
    )


def project(
    child: PlanNode,
    outputs: Sequence[tuple[str, Expr, DataType]],
    op_id: Optional[str] = None,
) -> PlanNode:
    """Compute output columns ``(name, expr, dtype)`` from the input."""
    if not outputs:
        raise PlanError("project requires at least one output column")
    for _, expr, _ in outputs:
        check_batch(expr, child.schema)
    schema = Schema([Column(name, dtype) for name, expr, dtype in outputs])
    sig_cols = ",".join(
        f"{name}={expr.signature()}" for name, expr, _ in outputs
    )
    signature = f"project({sig_cols};{child.signature})"
    return _node("project", {"outputs": tuple(outputs)}, (child,), schema,
                 signature, op_id)


def aggregate(
    child: PlanNode,
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    op_id: Optional[str] = None,
) -> PlanNode:
    """Hash aggregation (stop-&-go: consumes all input, then emits)."""
    if not aggs and not group_by:
        raise PlanError("aggregate requires group keys or aggregates")
    for key in group_by:
        child.schema.index_of(key)
    for spec in aggs:
        if spec.expr is not None:
            check_batch(spec.expr, child.schema)
    columns = [Column(k, child.schema.dtype_of(k)) for k in group_by]
    columns += [Column(spec.name, spec.output_dtype()) for spec in aggs]
    schema = Schema(columns)
    signature = (
        f"aggregate(by={','.join(group_by)};"
        f"{';'.join(s.signature() for s in aggs)};{child.signature})"
    )
    return _node(
        "aggregate",
        {"group_by": tuple(group_by), "aggs": tuple(aggs)},
        (child,),
        schema,
        signature,
        op_id,
    )


def sort(
    child: PlanNode,
    keys: Sequence[tuple[str, bool]],
    op_id: Optional[str] = None,
) -> PlanNode:
    """Full sort by ``(column, ascending)`` keys (stop-&-go)."""
    if not keys:
        raise PlanError("sort requires at least one key")
    for name, _ in keys:
        child.schema.index_of(name)
    signature = (
        "sort("
        + ",".join(f"{name}:{'asc' if asc else 'desc'}" for name, asc in keys)
        + f";{child.signature})"
    )
    return _node("sort", {"keys": tuple(keys)}, (child,), child.schema,
                 signature, op_id)


def limit(child: PlanNode, count: int, op_id: Optional[str] = None) -> PlanNode:
    """Pass through the first ``count`` rows of the input.

    Combined with :func:`sort` this gives top-N queries (TPC-H Q3's
    ``LIMIT 10``); the stage stops emitting once satisfied but still
    drains its producer.
    """
    if count < 0:
        raise PlanError(f"limit count must be >= 0, got {count}")
    signature = f"limit({count};{child.signature})"
    return _node("limit", {"count": count}, (child,), child.schema,
                 signature, op_id)


def hash_join(
    build: PlanNode,
    probe: PlanNode,
    build_key: str,
    probe_key: str,
    join_type: str = "inner",
    op_id: Optional[str] = None,
) -> PlanNode:
    """Hash join: stop-&-go build on child 0, pipelined probe of child 1.

    Output schemas by join type:

    * ``inner`` / ``left``: probe columns followed by build columns
      (``left`` emits NULL build columns for unmatched probe rows);
    * ``semi`` / ``anti``: probe columns only (existence tests).

    Columns of the two inputs must not collide for inner/left joins.
    """
    if join_type not in JOIN_TYPES:
        raise PlanError(f"unknown join type {join_type!r}; use {JOIN_TYPES}")
    build.schema.index_of(build_key)
    probe.schema.index_of(probe_key)
    if join_type in ("inner", "left"):
        overlap = set(build.schema.names()) & set(probe.schema.names())
        if overlap:
            raise PlanError(
                f"join would produce duplicate columns {sorted(overlap)}; "
                "project the inputs apart first"
            )
        schema = Schema(list(probe.schema.columns) + list(build.schema.columns))
    else:
        schema = probe.schema
    signature = (
        f"hash_join({join_type};{build_key}={probe_key};"
        f"{build.signature};{probe.signature})"
    )
    return _node(
        "hash_join",
        {"build_key": build_key, "probe_key": probe_key, "join_type": join_type},
        (build, probe),
        schema,
        signature,
        op_id,
    )


def nested_loop_join(
    left: PlanNode,
    right: PlanNode,
    predicate: Expr,
    op_id: Optional[str] = None,
) -> PlanNode:
    """Block nested-loop join with an arbitrary predicate.

    The right (inner) input is buffered (stop-&-go); the left input
    streams. Output is left columns followed by right columns, and the
    predicate is compiled against that combined schema.
    """
    overlap = set(left.schema.names()) & set(right.schema.names())
    if overlap:
        raise PlanError(
            f"join would produce duplicate columns {sorted(overlap)}; "
            "project the inputs apart first"
        )
    schema = Schema(list(left.schema.columns) + list(right.schema.columns))
    predicate.compile(schema)
    signature = (
        f"nlj({predicate.signature()};{left.signature};{right.signature})"
    )
    return _node("nested_loop_join", {"predicate": predicate}, (left, right),
                 schema, signature, op_id)


def merge_join(
    left: PlanNode,
    right: PlanNode,
    left_key: str,
    right_key: str,
    op_id: Optional[str] = None,
) -> PlanNode:
    """Merge join of two inputs already sorted on their keys.

    Inner equality join; inputs must arrive sorted ascending on
    ``left_key`` / ``right_key`` (use :func:`sort` below otherwise —
    the engine does not verify sortedness, mirroring real executors
    that trust optimizer-provided orderings, but the reference
    executor checks and raises on unsorted input).
    """
    left.schema.index_of(left_key)
    right.schema.index_of(right_key)
    overlap = set(left.schema.names()) & set(right.schema.names())
    if overlap:
        raise PlanError(
            f"join would produce duplicate columns {sorted(overlap)}; "
            "project the inputs apart first"
        )
    schema = Schema(list(left.schema.columns) + list(right.schema.columns))
    signature = (
        f"merge_join({left_key}={right_key};{left.signature};{right.signature})"
    )
    return _node(
        "merge_join",
        {"left_key": left_key, "right_key": right_key},
        (left, right),
        schema,
        signature,
        op_id,
    )


def not_null(node: PlanNode, catalog: Catalog) -> frozenset[int]:
    """The output positions of ``node`` that can hold no NULL.

    Derived from the tables' ingest facts as they stand now
    (:meth:`~repro.storage.table.Table.not_null`), so stages call it
    when they are built: an ingest that adds a NULL changes the next
    stage's kernels. Scans carry the table's facts through their fused
    outputs and projections decide per expression
    (:meth:`~repro.engine.expressions.Expr.nullable`); filter, sort and
    limit keep their child's set; an inner join keeps both sides, a
    semi, anti or left join the probe side only. An aggregate keeps its
    NOT NULL group keys and ``count``, plus grouped sum/avg/min/max
    over NOT NULL inputs (a group has at least one row); a global
    aggregate's other outputs stay nullable — an empty input is NULL.
    """
    kind = node.kind
    params = node.params
    if kind == "scan":
        table = catalog.table(params["table"])
        facts = table.not_null(params["columns"])
        outputs = params["outputs"]
        if outputs is None:
            return facts
        base = table.projected_schema(params["columns"])
        return frozenset(
            i for i, (_, expr, _) in enumerate(outputs) if not expr.nullable(base, facts)
        )
    if kind in ("filter", "sort", "limit"):
        return not_null(node.children[0], catalog)
    if kind == "project":
        child = node.children[0]
        facts = not_null(child, catalog)
        return frozenset(
            i
            for i, (_, expr, _) in enumerate(params["outputs"])
            if not expr.nullable(child.schema, facts)
        )
    if kind == "aggregate":
        child = node.children[0]
        facts = not_null(child, catalog)
        keys = params["group_by"]
        out = {i for i, key in enumerate(keys) if child.schema.index_of(key) in facts}
        for i, spec in enumerate(params["aggs"], len(keys)):
            if spec.func == "count" or (keys and not spec.expr.nullable(child.schema, facts)):
                out.add(i)
        return frozenset(out)
    if kind == "hash_join":
        build, probe = node.children
        if params["join_type"] != "inner":
            return not_null(probe, catalog)
        left, right = probe, build  # probe columns come first
    elif kind in ("merge_join", "nested_loop_join"):
        left, right = node.children
    else:
        raise PlanError(f"not_null: unknown operator kind {kind!r}")
    width = len(left.schema)
    return not_null(left, catalog) | {width + i for i in not_null(right, catalog)}
