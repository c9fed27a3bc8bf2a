"""Kernels compiled against NOT NULL: one nullability fact per column.

A table records per column whether any stored value is NULL;
:func:`~repro.engine.plan.not_null` carries those facts up a plan; and
every generated predicate, projection and aggregate fold is compiled
against the set, guarding only operands that can be NULL. These tests
pin each link: the guard-free kernel is value-for-value the row-wise
closure (types included), the plan rules hold per operator kind, the
table fact never resets, and an ingest that adds a NULL makes the next
query take the guarded kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.engine import execute_reference
from repro.engine.costs import CostModel
from repro.engine.expressions import (
    _BatchCodegen,
    add,
    and_,
    batch_source,
    between,
    col,
    compile_batch,
    eq,
    ge,
    gt,
    in_,
    le,
    lit,
    lt,
    mul,
    ne,
    not_,
    or_,
    sub,
    udf,
)
from repro.engine.operators import aggregate as aggregate_module
from repro.engine.operators import scan as scan_module
from repro.engine.operators.aggregate import _fold_source
from repro.engine.operators.api import StageContext
from repro.engine.packet import RowBatch
from repro.engine.plan import (
    AggSpec,
    aggregate,
    filter_,
    hash_join,
    limit,
    merge_join,
    nested_loop_join,
    not_null,
    project,
    scan,
    sort,
)
from repro.errors import SchemaError
from repro.sim import Simulator
from repro.storage import Catalog, DataType, Schema
from repro.storage.table import Table
from repro.tpch.generator import generate
from repro.tpch.queries import build

_I, _F = DataType.INT, DataType.FLOAT


def _negate(value):
    return None if value is None else -value


# -- the differential: generated kernel == row-wise closure ------------------

SCHEMA = Schema([("a", _I), ("b", _I), ("c", _F)])

numbers = st.recursive(
    st.sampled_from([col("a"), col("b"), col("c")])
    | st.builds(lit, st.none() | st.integers(-5, 5) | st.floats(-4, 4, allow_nan=False)),
    lambda inner: st.one_of(
        st.builds(add, inner, inner),
        st.builds(sub, inner, inner),
        st.builds(mul, inner, inner),
        st.builds(lambda x: udf("negate", _negate, x), inner),
    ),
    max_leaves=6,
)
compare = st.sampled_from([eq, ne, lt, le, gt, ge])
predicates = st.recursive(
    st.builds(lambda op, x, y: op(x, y), compare, numbers, numbers)
    | st.builds(between, numbers, numbers, numbers)
    | st.builds(in_, numbers, st.lists(st.none() | st.integers(-5, 5), max_size=3))
    | st.builds(lit, st.booleans()),
    lambda inner: st.one_of(
        st.builds(not_, inner),
        st.builds(lambda xs: and_(*xs), st.lists(inner | numbers, min_size=1, max_size=3)),
        st.builds(lambda xs: or_(*xs), st.lists(inner | numbers, min_size=1, max_size=3)),
    ),
    max_leaves=8,
)


@st.composite
def tables(draw):
    """Rows over ``SCHEMA`` in which each column may or may not hold NULLs."""
    n = draw(st.integers(0, 12))
    columns = []
    for values in (st.integers(-6, 6), st.integers(-6, 6), st.floats(-5, 5, allow_nan=False)):
        if draw(st.booleans()):
            values = st.none() | values
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    return list(zip(*columns)) if n else []


def _outcome(fn):
    """The values ``fn()`` produces, by repr (so ``False`` is not
    ``None`` nor ``0``, ``1`` not ``1.0``), or the error type it raises."""
    try:
        return [repr(value) for value in fn()]
    except TypeError as exc:
        return type(exc)


@given(expr=predicates | numbers, rows=tables())
@settings(max_examples=300, deadline=None)
def test_kernel_equals_row_closure_value_for_value(expr, rows):
    columns = [tuple(column) for column in zip(*rows)] if rows else [(), (), ()]
    facts = frozenset(i for i, column in enumerate(columns) if None not in column)
    row_fn = expr.compile(SCHEMA)
    want = _outcome(lambda: [row_fn(row) for row in rows])
    for notnull in (facts, frozenset()):
        batch = compile_batch(expr, SCHEMA, notnull)
        assert _outcome(lambda: batch(columns, len(rows))) == want


def test_guards_follow_the_operand_not_the_node():
    facts = frozenset({0, 2})  # b may be NULL
    assert "is" not in batch_source(lt(col("a"), 8400), SCHEMA, facts)
    assert "_r0 is" not in batch_source(lt(col("a"), col("b")), SCHEMA, facts)
    assert "_r1 is not None" in batch_source(lt(col("a"), col("b")), SCHEMA, facts)
    # Arithmetic over NOT NULL operands needs no guard; a column is read
    # as it is, never rebound with a walrus.
    source = batch_source(gt(mul(col("a"), sub(1.0, col("c"))), 3), SCHEMA, facts)
    assert "is" not in source and ":=" not in source
    assert ":=" not in batch_source(lt(col("b"), 1), SCHEMA, facts)
    # A conjunction of booleans is not re-wrapped; a bare column is.
    assert "bool(" not in batch_source(and_(lt(col("a"), 1), gt(col("c"), 0)), SCHEMA, facts)
    assert "bool(" in batch_source(and_(col("a"), gt(col("c"), 0)), SCHEMA, facts)
    # A UDF is opaque: always guarded.
    wrapped = udf("negate", _negate, col("a"))
    assert "is not None" in batch_source(lt(wrapped, 1), SCHEMA, frozenset({0, 1, 2}))


def test_the_nullability_set_is_part_of_the_memo_key():
    expr = lt(col("b"), 3)
    guarded = compile_batch(expr, SCHEMA)
    assert compile_batch(expr, SCHEMA, frozenset({1})) is not guarded
    assert compile_batch(expr, SCHEMA, frozenset()) is guarded


def test_literals_of_equal_value_but_other_type_compile_apart():
    """``1 == 1.0 == True`` in Python, so the memo used to hand the
    first-compiled of them to all three."""
    for values in ((1, 1.0, True), (0, 0.0, False)):
        got = [compile_batch(lit(value), SCHEMA)([(), (), ()], 1)[0] for value in values]
        assert list(map(repr, got)) == list(map(repr, values))
    assert compile_batch(add(col("a"), 1), SCHEMA)([(2,)], 1) == [3]
    assert repr(compile_batch(add(col("a"), 1.0), SCHEMA)([(2,)], 1)) == "[3.0]"


# -- not_null over every plan kind -------------------------------------------


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.create("t", Schema([("k", _I), ("v", _F)])).insert_many([(1, 1.0), (2, 2.0)])
    cat.create("u", Schema([("k2", _I), ("w", _F)])).insert_many([(1, None), (3, 3.0)])
    cat.create("empty", Schema([("e", _I)]))
    return cat


def test_scan_carries_the_table_facts_through_its_outputs(catalog):
    assert not_null(scan(catalog, "t"), catalog) == {0, 1}
    assert not_null(scan(catalog, "u"), catalog) == {0}
    assert not_null(scan(catalog, "u", columns=["w", "k2"]), catalog) == {1}
    fused = scan(
        catalog,
        "u",
        predicate=gt(col("w"), 0.0),
        outputs=[
            ("x", add(col("k2"), 1), _I),
            ("y", col("w"), _F),
            ("z", udf("negate", _negate, col("k2")), _I),
            ("flag", lt(col("w"), 2.0), _I),
        ],
    )
    assert not_null(fused, catalog) == {0, 3}


def test_filter_sort_limit_keep_the_child_set(catalog):
    child = scan(catalog, "u")
    assert not_null(filter_(child, gt(col("k2"), 0)), catalog) == {0}
    assert not_null(sort(child, [("w", True)]), catalog) == {0}
    assert not_null(limit(child, 1), catalog) == {0}


def test_project_decides_per_expression(catalog):
    node = project(
        scan(catalog, "u"),
        [
            ("a", col("k2"), _I),
            ("b", mul(col("w"), 2.0), _F),
            ("c", mul(col("k2"), 2), _I),
            ("d", lit(None), _I),
            ("e", udf("negate", _negate, col("k2")), _I),
            ("f", in_(col("w"), [1.0]), _I),
        ],
    )
    assert not_null(node, catalog) == {0, 2, 5}


@pytest.mark.parametrize(
    "join_type, expected", [("inner", {0, 2, 3}), ("semi", {0}), ("anti", {0}), ("left", {0})]
)
def test_hash_join_keeps_the_sides_its_type_cannot_pad(catalog, join_type, expected):
    # Output: probe columns (u: k2, w) then, for inner/left, build (t: k, v).
    node = hash_join(scan(catalog, "t"), scan(catalog, "u"), "k", "k2", join_type)
    assert not_null(node, catalog) == expected


def test_left_join_build_side_is_nullable_in_the_data_too(catalog):
    node = hash_join(scan(catalog, "t"), scan(catalog, "u"), "k", "k2", "left")
    rows = execute_reference(node, catalog)
    assert any(row[2] is None for row in rows)  # u.k2 = 3 has no match in t
    assert not {2, 3} & not_null(node, catalog)


def test_inner_merge_and_nested_loop_joins_keep_both_sides(catalog):
    left, right = scan(catalog, "u"), scan(catalog, "t")
    assert not_null(merge_join(left, right, "k2", "k"), catalog) == {0, 2, 3}
    assert not_null(nested_loop_join(left, right, eq(col("k2"), col("k"))), catalog) == {0, 2, 3}


def test_grouped_aggregate_keeps_keys_counts_and_not_null_folds(catalog):
    aggs = [
        AggSpec("count", "n"),
        AggSpec("count", "n_w", col("w")),
        AggSpec("sum", "s_w", col("w")),
        AggSpec("sum", "s_k", col("k2")),
        AggSpec("min", "lo", col("k2")),
        AggSpec("avg", "mean", add(col("k2"), 1)),
        AggSpec("max", "hi", udf("negate", _negate, col("k2"))),
    ]
    node = aggregate(scan(catalog, "u"), ["k2"], aggs)
    assert not_null(node, catalog) == {0, 1, 2, 4, 5, 6}
    by_w = aggregate(scan(catalog, "u"), ["w"], [AggSpec("count", "n")])
    assert not_null(by_w, catalog) == {1}


def test_global_aggregate_stays_nullable_but_counts(catalog):
    aggs = [AggSpec("sum", "s", col("e")), AggSpec("count", "n"), AggSpec("max", "m", col("e"))]
    node = aggregate(scan(catalog, "empty"), [], aggs)
    assert not_null(scan(catalog, "empty"), catalog) == {0}
    assert not_null(node, catalog) == {1}


# -- the table fact ----------------------------------------------------------


def test_table_fact_is_sticky_across_inserts():
    table = Table("t", Schema([("k", _I), ("v", _F)]))
    assert table.not_null() == {0, 1}
    table.insert_many([(1, 1.0), (2, 2)])
    assert table.not_null() == {0, 1}
    table.insert_many([(3, None)])
    assert table.not_null() == {0}
    table.insert_many([(4, 4.0)] * 3)
    assert table.not_null() == {0}
    assert table.not_null(["v", "k"]) == {1}
    # All or nothing: a rejected batch records no NULL either.
    with pytest.raises(SchemaError):
        table.insert_many([(None, 5.0), ("bad", 6.0)])
    assert table.not_null() == {0}


# -- an ingest after a scan ran ----------------------------------------------


def test_a_null_ingested_after_a_scan_takes_the_guarded_kernel(monkeypatch):
    catalog = Catalog()
    table = catalog.create("t", Schema([("k", _I), ("v", _F)]))
    table.insert_many([(i % 3, float(i)) for i in range(40)])
    session = Database.open(catalog, "cmp32")
    query = (
        session.table("t")
        .where(lt(col("v"), 30.0))
        .agg(AggSpec("sum", "s", col("v")), AggSpec("min", "m", col("v")), by=["k"])
        .build()
    )
    chosen, predicates = [], []
    compile_scan = scan_module.compile_predicate
    kernel = aggregate_module._kernel

    def record_scan(expr, schema, notnull=frozenset()):
        chosen.append(("scan", frozenset(notnull)))
        predicates.append(batch_source(expr, schema, notnull))
        return compile_scan(expr, schema, notnull)

    def record_kernel(aggs, schema, grouped, notnull):
        chosen.append(("aggregate", notnull))
        return kernel(aggs, schema, grouped, notnull)

    monkeypatch.setattr(scan_module, "compile_predicate", record_scan)
    monkeypatch.setattr(aggregate_module, "_kernel", record_kernel)

    assert session.run(query).rows == execute_reference(query.plan, catalog)
    assert chosen == [("scan", {0, 1}), ("aggregate", {0, 1})]
    assert "None" not in predicates.pop()
    chosen.clear()

    table.insert_many([(1, None), (2, 5.0)])
    assert session.run(query).rows == execute_reference(query.plan, catalog)
    assert chosen == [("scan", {0}), ("aggregate", {0})]
    assert "_r1 is not None" in predicates.pop()


# -- the TPC-H kernels carry no guard ----------------------------------------


def _kernel_sources(plan, catalog):
    """Every generated source a stage of ``plan`` compiles."""
    sources = []
    for node in plan.walk():
        params = node.params
        if node.kind == "scan":
            table = catalog.table(params["table"])
            schema = table.projected_schema(params["columns"])
            facts = table.not_null(params["columns"])
            exprs = [params["predicate"]] if params["predicate"] is not None else []
            exprs += [expr for _, expr, _ in params["outputs"] or ()]
        elif node.kind in ("filter", "project"):
            schema = node.children[0].schema
            facts = not_null(node.children[0], catalog)
            exprs = [params["predicate"]] if node.kind == "filter" else []
            exprs += [expr for _, expr, _ in params.get("outputs", ())]
        elif node.kind == "aggregate":
            child = node.children[0]
            gen = _BatchCodegen(child.schema, not_null(child, catalog))
            sources.append(_fold_source(params["aggs"], gen, bool(params["group_by"])))
            continue
        else:
            continue
        sources += [batch_source(expr, schema, facts) for expr in exprs]
    return sources


@pytest.mark.parametrize("name", ["q1", "q6"])
def test_tpch_q1_q6_kernels_have_no_null_guard(name):
    catalog = generate(0.0005, 2007)
    sources = _kernel_sources(build(name, catalog).plan, catalog)
    assert sources and not any("is None" in source or "is not None" in source for source in sources)
    # The fold never counts a NULL: only the row count is incremented.
    fold = next(source for source in sources if source.startswith("def _fold"))
    increments = [line.strip() for line in fold.splitlines() if line.endswith("+= 1")]
    assert increments in ([], ["_s[0] += 1"])


def test_a_predicate_that_is_not_boolean_keeps_its_truthy_rows(catalog):
    """Filter flags are always bools, so the kept count is
    ``flags.count(True)``: a bare column or UDF predicate is tested for
    truth first."""
    session = Database.open(catalog, "cmp32")
    odd = udf("odd", lambda k: k % 2, col("k"))
    for predicate in (col("k"), odd, sub(col("k"), 1)):
        fused = session.table("t").where(predicate).build()
        apart = session.table("t").select("k").filter(predicate).build()
        for query in (fused, apart):
            assert session.run(query).rows == execute_reference(query.plan, catalog)
    assert session.run(session.table("t").where(odd).build()).rows == [(1, 1.0)]


# -- the batch and the fused scan read only what they need -------------------


def test_row_backed_column_takes_one_column_and_stays_row_backed():
    rows = ((1, "a", 2.0), (3, "b", 4.0))
    batch = RowBatch.from_rows(rows, 3)
    assert batch.column(2) == (2.0, 4.0)
    assert batch._columns is None and batch.rows is rows


class _CountingColumn(tuple):
    """A stored column that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


def test_fused_scan_compresses_only_the_columns_outputs_read(catalog):
    node = scan(
        catalog,
        "t",
        predicate=gt(col("v"), 1.5),
        outputs=[("k", col("k"), _I), ("k1", add(col("k"), 1), _I)],
    )
    ctx = StageContext(catalog, CostModel(), 64)
    operator = scan_module.ScanOperator(node, ctx, [Simulator(1).queue("out")])
    walks = _CountingColumn.walks
    _, batch = operator._page_cost_batch([(1, 2), _CountingColumn((1.0, 2.0))])
    assert batch.columns == [(2,), (3,)]
    assert _CountingColumn.walks == walks + 1  # the predicate's walk; never compressed
