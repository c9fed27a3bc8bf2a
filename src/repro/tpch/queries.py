"""Physical plans for the paper's TPC-H query suite (Q1, Q4, Q6, Q13).

The paper picks two scan-heavy queries (Q1, Q6) that share at the scan
stage and two join-heavy queries (Q4, Q13) that share at the join
(Section 3.1). Each builder returns a :class:`TpchQuery` carrying the
plan, its designated ``pivot`` op_id, and a label.

Plan structure follows the paper's stage decomposition:

* **Q1/Q6** are two-stage pipelines — a *fused* scan stage (scan +
  predicate + result projection over LINEITEM) feeding an aggregation.
  The fused scan is the pivot; its per-consumer output of qualifying
  tuples is the model's *s*. Like the paper we fix the predicate
  constants; they are chosen (within the spec's value domains) so the
  scan stage's output work is comparable to its input work — the
  regime the paper measured for Q6 (w = 9.66, s = 10.34), which is
  precisely what makes scan sharing serialize badly on many cores.
* **Q4** filters ORDERS to a three-month window, semi-joins against
  LINEITEM rows with ``l_commitdate < l_receiptdate``, then counts by
  order priority. The semi hash join is the pivot: it emits few rows
  relative to the work below it, so sharing is nearly free — the
  always-wins regime of Figure 2 (right).
* **Q13** left-outer-joins CUSTOMER with non-"special requests"
  ORDERS, counts orders per customer and then customers per count.
  The join is again the pivot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.expressions import add, and_, col, lt, mul, not_, sub, udf
from repro.engine.plan import (
    AggSpec,
    PlanNode,
    aggregate,
    filter_,
    hash_join,
    project,
    scan,
    sort,
)
from repro.storage.catalog import Catalog
from repro.storage.schema import DataType, date_to_ordinal
from repro.tpch.text import matches_special_requests

__all__ = ["TpchQuery", "q1", "q4", "q6", "q13", "QUERIES", "build"]

_F = DataType.FLOAT
_I = DataType.INT
_S = DataType.STR


@dataclass(frozen=True)
class TpchQuery:
    """A ready-to-execute query with its sharing pivot."""

    name: str
    plan: PlanNode
    pivot: str
    kind: str  # "scan-heavy" | "join-heavy"

    def pivot_node(self) -> PlanNode:
        return self.plan.find(self.pivot)

    # The facade Query's spelling of the pivot, so the dispatcher
    # reads both query types the same way.
    @property
    def pivot_op_id(self) -> str:
        return self.pivot

    @property
    def pivot_signature(self) -> str:
        return self.pivot_node().signature


def q1(catalog: Catalog) -> TpchQuery:
    """Pricing summary report (scan-heavy; shares at the scan stage).

    The spec's shipdate cutoff keeps ~97% of LINEITEM, so the scan
    stage forwards nearly the whole table to the aggregation — a
    high-volume pivot output.
    """
    cutoff = date_to_ordinal(1998, 12, 1) - 90
    scan_stage = scan(
        catalog,
        "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
        predicate=lt(col("l_shipdate"), cutoff + 1),  # shipdate <= cutoff
        outputs=[
            ("l_returnflag", col("l_returnflag"), _S),
            ("l_linestatus", col("l_linestatus"), _S),
            ("l_quantity", col("l_quantity"), _F),
            ("l_extendedprice", col("l_extendedprice"), _F),
            ("l_discount", col("l_discount"), _F),
            ("disc_price", mul(col("l_extendedprice"),
                               sub(1.0, col("l_discount"))), _F),
            ("charge", mul(mul(col("l_extendedprice"),
                               sub(1.0, col("l_discount"))),
                           add(1.0, col("l_tax"))), _F),
        ],
        op_id="q1_scan",
        # Q1's scan stage evaluates eight decimal expressions per
        # qualifying tuple — far heavier per tuple than Q6's integer
        # comparisons.
        cost_factor=2.5,
    )
    agg = aggregate(
        scan_stage,
        group_by=["l_returnflag", "l_linestatus"],
        aggs=[
            AggSpec("sum", "sum_qty", col("l_quantity")),
            AggSpec("sum", "sum_base_price", col("l_extendedprice")),
            AggSpec("sum", "sum_disc_price", col("disc_price")),
            AggSpec("sum", "sum_charge", col("charge")),
            AggSpec("avg", "avg_qty", col("l_quantity")),
            AggSpec("avg", "avg_price", col("l_extendedprice")),
            AggSpec("avg", "avg_disc", col("l_discount")),
            AggSpec("count", "count_order"),
        ],
        op_id="q1_agg",
    )
    plan = sort(agg, [("l_returnflag", True), ("l_linestatus", True)],
                op_id="q1_sort")
    return TpchQuery(name="q1", plan=plan, pivot="q1_scan", kind="scan-heavy")


def q6(catalog: Catalog) -> TpchQuery:
    """Forecasting revenue change (scan-heavy; shares at the scan).

    Two stages exactly as in Section 4.4: fused scan then a scalar
    aggregation. The fixed predicate constants keep roughly half the
    table (the paper fixes its predicates too and its measured scan
    stage spent ~52% of its time on output — s/(w+s) = 10.34/20).
    """
    date_lo = date_to_ordinal(1993, 1, 1)
    date_hi = date_to_ordinal(1996, 1, 1)
    predicate = and_(
        lt(date_lo - 1, col("l_shipdate")),
        lt(col("l_shipdate"), date_hi),
        lt(col("l_discount"), 0.09),
        lt(col("l_quantity"), 45.0),
    )
    scan_stage = scan(
        catalog,
        "lineitem",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        predicate=predicate,
        op_id="q6_scan",
    )
    plan = aggregate(
        scan_stage,
        group_by=[],
        aggs=[
            AggSpec(
                "sum",
                "revenue",
                mul(col("l_extendedprice"), col("l_discount")),
            )
        ],
        op_id="q6_agg",
    )
    return TpchQuery(name="q6", plan=plan, pivot="q6_scan", kind="scan-heavy")


def q4(catalog: Catalog) -> TpchQuery:
    """Order priority checking (join-heavy; shares at the join).

    ORDERS in a three-month window, kept only if some lineitem of the
    order has ``l_commitdate < l_receiptdate`` (EXISTS -> semi join on
    a hash of qualifying orderkeys), counted by priority.
    """
    date_lo = date_to_ordinal(1993, 7, 1)
    date_hi = date_to_ordinal(1993, 10, 1)
    # Unfused multi-stage sides: join-heavy plans are deep pipelines
    # with real intra-query parallelism (scan / filter / project run
    # concurrently), which is what lets shared join execution keep
    # multiple contexts busy.
    lineitem_side = project(
        filter_(
            scan(
                catalog,
                "lineitem",
                columns=["l_orderkey", "l_commitdate", "l_receiptdate"],
                op_id="q4_lineitem_scan",
            ),
            lt(col("l_commitdate"), col("l_receiptdate")),
            op_id="q4_lineitem_filter",
        ),
        [("l_orderkey", col("l_orderkey"), _I)],
        op_id="q4_lineitem_project",
    )
    orders_side = project(
        filter_(
            scan(
                catalog,
                "orders",
                columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
                op_id="q4_orders_scan",
            ),
            and_(
                lt(date_lo - 1, col("o_orderdate")),
                lt(col("o_orderdate"), date_hi),
            ),
            op_id="q4_orders_filter",
        ),
        [
            ("o_orderkey", col("o_orderkey"), _I),
            ("o_orderpriority", col("o_orderpriority"), _S),
        ],
        op_id="q4_orders_project",
    )
    join = hash_join(
        build=lineitem_side,
        probe=orders_side,
        build_key="l_orderkey",
        probe_key="o_orderkey",
        join_type="semi",
        op_id="q4_join",
    )
    agg = aggregate(
        join,
        group_by=["o_orderpriority"],
        aggs=[AggSpec("count", "order_count")],
        op_id="q4_agg",
    )
    plan = sort(agg, [("o_orderpriority", True)], op_id="q4_sort")
    return TpchQuery(name="q4", plan=plan, pivot="q4_join", kind="join-heavy")


def q13(catalog: Catalog) -> TpchQuery:
    """Customer distribution (join-heavy; shares at the join).

    CUSTOMER left-outer-joined with ORDERS whose comment does not
    match ``%special%requests%``; count orders per customer, then the
    distribution of those counts.

    The physical plan uses the standard group-pushdown: orders are
    counted per customer *below* the join, so the join's build input
    and output are one row per active customer. With the heavy work
    (orders scan + pre-aggregation + build) below the pivot and only
    compact per-customer counts multiplexed above it, the per-sharer
    pivot cost is "insignificant compared to the work performed by the
    scan and the rest of the join" (Section 3.3) — the always-wins
    regime of Figure 2 (right).
    """
    orders_side = project(
        filter_(
            scan(
                catalog,
                "orders",
                columns=["o_orderkey", "o_custkey", "o_comment"],
                op_id="q13_orders_scan",
            ),
            not_(
                udf("special_requests", matches_special_requests,
                    col("o_comment"))
            ),
            op_id="q13_orders_filter",
            # LIKE '%special%requests%' scans the comment string; string
            # matching is an order of magnitude dearer than the integer
            # comparisons the base filter cost assumes.
            cost_factor=8.0,
        ),
        [("o_custkey", col("o_custkey"), _I)],
        op_id="q13_orders_project",
    )
    order_counts = aggregate(
        orders_side,
        group_by=["o_custkey"],
        aggs=[AggSpec("count", "ct")],
        op_id="q13_precount",
    )
    customer_side = scan(
        catalog,
        "customer",
        columns=["c_custkey"],
        op_id="q13_customer",
    )
    join = hash_join(
        build=order_counts,
        probe=customer_side,
        build_key="o_custkey",
        probe_key="c_custkey",
        join_type="left",
        op_id="q13_join",
    )
    c_count = project(
        join,
        [("c_count",
          udf("coalesce0", lambda v: 0 if v is None else v, col("ct")), _I)],
        op_id="q13_c_count",
    )
    distribution = aggregate(
        c_count,
        group_by=["c_count"],
        aggs=[AggSpec("count", "custdist")],
        op_id="q13_distribution",
    )
    plan = sort(distribution, [("custdist", False), ("c_count", False)],
                op_id="q13_sort")
    return TpchQuery(name="q13", plan=plan, pivot="q13_join", kind="join-heavy")


QUERIES = {"q1": q1, "q4": q4, "q6": q6, "q13": q13}


def build(name: str, catalog: Catalog) -> TpchQuery:
    """Build one of the suite's queries by name."""
    try:
        builder = QUERIES[name]
    except KeyError:
        raise KeyError(
            f"unknown TPC-H query {name!r}; available: {sorted(QUERIES)}"
        ) from None
    return builder(catalog)
