"""Deterministic TPC-H database generator.

A from-scratch, laptop-scale dbgen: at scale factor 1.0 the spec's
cardinalities are 150k customers / 1.5M orders / ~6M lineitems; the
reproduction defaults to a small fraction of that, preserving the
*relative* cardinalities and every distribution the implemented
queries depend on:

* order dates uniform over [1992-01-01, 1998-08-02] (Q1, Q4, Q6
  windows select the spec's fractions of rows),
* ship/commit/receipt dates offset from the order date exactly as the
  spec prescribes (Q4's ``l_commitdate < l_receiptdate`` holds for a
  realistic ~50% of lineitems; Q1's shipdate cutoff keeps ~98%),
* one third of customers have no orders (Q13's zero-order spike),
* 2% of order comments are planted with ``%special%requests%``
  (Q13's filter; 3.5% match it at scale factor 0.011, seed 2007),
* five order priorities uniform (Q4's groups),
* quantity/discount uniform (Q6's selectivity ~2%).

Everything is seeded; the same ``(scale_factor, seed)`` pair always
yields the identical database.

The database is memory-resident, so a value with a small domain (a
date, a part, supplier or customer key a foreign key repeats, a clerk,
a flag, a priority) is never minted per row. Every such column of
``orders`` and ``lineitem`` is *encoded* (``Table.encode``): its row
holds the index drawn into one prebuilt tuple of values — the draw
``Stream.ints(0, n - 1)``, which takes the same twister words as
drawing a value from ``n`` — and the table keeps that code in one or
two bytes until a read builds the column from the tuple, so equal
values are one object and an unread column costs its codes. The small
tables' domain columns (``p_mfgr``) are picked from a shared tuple.
"""

from __future__ import annotations

import datetime as _dt

from repro.errors import StorageError
from repro.storage.catalog import Catalog
from repro.tpch import schema as tpch_schema
from repro.tpch.rng import Stream, stream_for
from repro.tpch.text import SPECIAL_REQUEST_PROBABILITY, comment_code, comment_column

__all__ = ["generate", "GeneratorConfig", "START_DATE", "END_DATE"]

START_DATE = _dt.date(1992, 1, 1).toordinal()
END_DATE = _dt.date(1998, 8, 2).toordinal()

_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
# fmt: off
_NATIONS = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
)
# fmt: on
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
_SHIP_INSTRUCT = ("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")
_ORDER_STATUS = ("O", "F", "P")
_CONTAINERS = ("SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PKG")
_TYPES = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
_BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
# A lineitem's quantity, discount and tax, indexed by the integer drawn.
_QUANTITIES = tuple(float(q) for q in range(1, 51))
_DISCOUNTS = tuple(round(d / 100.0, 2) for d in range(11))
_TAXES = tuple(round(t / 100.0, 2) for t in range(9))
_LINE_NUMBERS = tuple(range(1, 8))
_RETURN_FLAGS = ("R", "A", "N")
_LINE_STATUS = ("O", "F")
_SHIP_PRIORITIES = (0,)
# Every day a date column holds. An order date is one of the first
# ``_ORDER_DAYS`` (the last is 151 days before END_DATE) and a lineitem
# date lies at most 151 days after its order's, so all of them index
# this one tuple.
_DAYS = tuple(range(START_DATE, END_DATE + 1))
_ORDER_DAYS = END_DATE - 151 - START_DATE + 1
_CLERKS = tuple(f"Clerk#{i:09d}" for i in range(1, 1001))
_MANUFACTURERS = tuple(f"Manufacturer#{i}" for i in range(1, 6))


class GeneratorConfig:
    """Cardinalities derived from the scale factor.

    ``scale_factor=1.0`` matches the TPC-H spec; the reproduction's
    experiments default to much smaller databases (the paper used a
    1 GB database purely to be memory-resident, which ours always is).
    """

    def __init__(self, scale_factor: float = 0.01, seed: int = 2007) -> None:
        if scale_factor <= 0:
            raise StorageError(f"scale_factor must be > 0, got {scale_factor!r}")
        self.scale_factor = scale_factor
        self.seed = seed
        self.customers = max(int(150_000 * scale_factor), 50)
        self.orders_per_customer = 10  # spec: 1.5M orders per 150k customers
        self.parts = max(int(200_000 * scale_factor), 40)
        self.suppliers = max(int(10_000 * scale_factor), 10)

    def __repr__(self) -> str:
        return (
            f"GeneratorConfig(sf={self.scale_factor}, seed={self.seed}, "
            f"customers={self.customers})"
        )


# Tables are loaded through ``insert_many`` (validated a column at a
# time); the ``Stream`` draws happen while the row tuples are built, in
# the order a row-at-a-time load made them. The two big tables flush
# their row buffers every ``_LOAD_CHUNK`` orders, so the load's transient
# (row tuples plus their transpose) stays far below the database itself
# and does not become the process's memory high-water mark.
_LOAD_CHUNK = 1024


def _comment(codes: bytearray, stream: Stream, low=4, high=10, plant=False) -> str:
    """Draw a comment's codes onto ``codes``; its row holds ``""`` until read."""
    codes.extend(comment_code(stream, low, high, plant))
    return ""


def _populate_region(catalog: Catalog, stream: Stream) -> None:
    table, codes = catalog.create("region", tpch_schema.REGION), bytearray()
    table.insert_many([(key, name, _comment(codes, stream)) for key, name in enumerate(_REGIONS)])
    table.defer("r_comment", lambda: comment_column(codes))


def _populate_nation(catalog: Catalog, stream: Stream) -> None:
    table, codes = catalog.create("nation", tpch_schema.NATION), bytearray()
    nations = [(key, name, key % len(_REGIONS)) for key, name in enumerate(_NATIONS)]
    table.insert_many([(*nation, _comment(codes, stream)) for nation in nations])
    table.defer("n_comment", lambda: comment_column(codes))


def _phone(stream: Stream) -> str:
    return (
        f"{stream.uniform_int(10, 34)}-{stream.uniform_int(100, 999)}-"
        f"{stream.uniform_int(100, 999)}-{stream.uniform_int(1000, 9999)}"
    )


def _keys(n: int) -> tuple[int, ...]:
    """The primary keys ``1..n`` of a table, shared by every column that
    stores one of them."""
    return tuple(range(1, n + 1))


def _order_customers(customer_keys: tuple) -> tuple:
    """The customer key an order stores, indexed by the key drawn.
    Spec: only two thirds of customers have orders (Q13's spike), so a
    drawn multiple of 3 folds onto the key below it."""
    return tuple(customer_keys[k - 2] if k % 3 == 0 else k for k in customer_keys)


def _populate_supplier(catalog: Catalog, stream: Stream, supplier_keys: tuple) -> None:
    table, codes = catalog.create("supplier", tpch_schema.SUPPLIER), bytearray()
    table.insert_many(
        [
            (
                key,
                f"Supplier#{key:09d}",
                f"addr-{stream.uniform_int(1000, 9999)}",
                stream.uniform_int(0, len(_NATIONS) - 1),
                _phone(stream),
                round(stream.uniform_float(-999.99, 9999.99), 2),
                _comment(codes, stream),
            )
            for key in supplier_keys
        ]
    )
    table.defer("s_comment", lambda: comment_column(codes))


def _populate_part(catalog: Catalog, stream: Stream, part_keys: tuple) -> None:
    table, codes = catalog.create("part", tpch_schema.PART), bytearray()
    table.insert_many(
        [
            (
                key,
                f"part {key} {stream.choice(_TYPES).lower()}",
                stream.choice(_MANUFACTURERS),
                stream.choice(_BRANDS),
                stream.choice(_TYPES),
                stream.uniform_int(1, 50),
                stream.choice(_CONTAINERS),
                round(900 + key / 10 % 1000 + 0.01 * (key % 100), 2),
                _comment(codes, stream),
            )
            for key in part_keys
        ]
    )
    table.defer("p_comment", lambda: comment_column(codes))


def _populate_partsupp(
    catalog: Catalog, stream: Stream, part_keys: tuple, supplier_keys: tuple
) -> None:
    table, codes = catalog.create("partsupp", tpch_schema.PARTSUPP), bytearray()
    table.insert_many(
        [
            (
                part_key,
                stream.choice(supplier_keys),
                stream.uniform_int(1, 9999),
                round(stream.uniform_float(1.0, 1000.0), 2),
                _comment(codes, stream),
            )
            for part_key in part_keys
            for _ in range(2)  # spec has 4 per part; 2 keeps small SFs lean
        ]
    )
    table.defer("ps_comment", lambda: comment_column(codes))


def _populate_customer(catalog: Catalog, stream: Stream, customer_keys: tuple) -> None:
    table, codes = catalog.create("customer", tpch_schema.CUSTOMER), bytearray()
    table.insert_many(
        [
            (
                key,
                f"Customer#{key:09d}",
                f"addr-{stream.uniform_int(1000, 9999)}",
                stream.uniform_int(0, len(_NATIONS) - 1),
                _phone(stream),
                round(stream.uniform_float(-999.99, 9999.99), 2),
                stream.choice(_SEGMENTS),
                _comment(codes, stream),
            )
            for key in customer_keys
        ]
    )
    table.defer("c_comment", lambda: comment_column(codes))


def _populate_orders_and_lineitem(
    catalog: Catalog,
    stream: Stream,
    config: GeneratorConfig,
    customer_keys: tuple,
    part_keys: tuple,
    supplier_keys: tuple,
) -> None:
    orders = catalog.create("orders", tpch_schema.ORDERS)
    lineitem = catalog.create("lineitem", tpch_schema.LINEITEM)
    # Every small-domain column is stored as codes into its domain, and
    # its row holds the index drawn over that domain's width.
    order_domains = {
        "o_custkey": _order_customers(customer_keys),
        "o_orderstatus": _ORDER_STATUS,
        "o_orderdate": _DAYS,
        "o_orderpriority": _PRIORITIES,
        "o_clerk": _CLERKS,
        "o_shippriority": _SHIP_PRIORITIES,
    }
    line_domains = {
        "l_partkey": part_keys,
        "l_suppkey": supplier_keys,
        "l_linenumber": _LINE_NUMBERS,
        "l_quantity": _QUANTITIES,
        "l_discount": _DISCOUNTS,
        "l_tax": _TAXES,
        "l_returnflag": _RETURN_FLAGS,
        "l_linestatus": _LINE_STATUS,
        "l_shipdate": _DAYS,
        "l_commitdate": _DAYS,
        "l_receiptdate": _DAYS,
        "l_shipinstruct": _SHIP_INSTRUCT,
        "l_shipmode": _SHIP_MODES,
    }
    for table, domains in ((orders, order_domains), (lineitem, line_domains)):
        for name, domain in domains.items():
            table.encode(name, domain)
    # Each range is bound once, so each draw below is one call.
    key_gap = stream.ints(1, 4)
    customer = stream.ints(0, len(customer_keys) - 1)
    order_day = stream.ints(0, _ORDER_DAYS - 1)  # an index into _DAYS
    line_count = stream.ints(1, 7)
    order_status = stream.ints(0, len(_ORDER_STATUS) - 1)
    priority = stream.ints(0, len(_PRIORITIES) - 1)
    clerk = stream.ints(0, len(_CLERKS) - 1)
    quantity_of = stream.ints(0, len(_QUANTITIES) - 1)
    unit_price = stream.floats(900.0, 1100.0)
    discount_of = stream.ints(0, len(_DISCOUNTS) - 1)
    tax_of = stream.ints(0, len(_TAXES) - 1)
    ship_lag = stream.ints(1, 121)
    commit_lag = stream.ints(30, 90)
    receipt_lag = stream.ints(1, 30)
    return_flag = stream.ints(0, 1)  # "R" or "A"; "N" is code 2
    part = stream.ints(0, len(part_keys) - 1)
    supplier = stream.ints(0, len(supplier_keys) - 1)
    ship_instruct = stream.ints(0, len(_SHIP_INSTRUCT) - 1)
    ship_mode = stream.ints(0, len(_SHIP_MODES) - 1)
    coin = stream.random
    quantities = _QUANTITIES
    # A row holds its codes until its chunk is loaded, so a code that may
    # pass CPython's cached small ints is taken from this tuple, one int
    # object per code: a fresh int per row would sit between the rows'
    # floats in the allocator's pools and spread ``l_extendedprice`` over
    # several times the memory each scan of it walks.
    ints = tuple(range(max(map(len, (*order_domains.values(), *line_domains.values())))))
    order_codes, line_codes = bytearray(), bytearray()
    order_rows = []
    lines = []
    order_key = 0
    total_orders = config.customers * config.orders_per_customer
    for i in range(total_orders):
        order_key += key_gap()  # sparse keys, as in the spec
        cust = ints[customer()]
        day = order_day()
        n_lines = line_count()
        plant = coin() < SPECIAL_REQUEST_PROBABILITY
        status = order_status()

        total_price = 0.0
        for line in range(n_lines):
            quantity = quantity_of()
            extended = round(quantities[quantity] * unit_price(), 2)
            discount = discount_of()
            tax = tax_of()
            ship_day = day + ship_lag()
            ship = ints[ship_day]
            commit = ints[day + commit_lag()]
            receipt = ints[ship_day + receipt_lag()]
            returnflag = return_flag() if coin() < 0.5 else 2
            linestatus = 0 if coin() < 0.5 else 1
            total_price += extended
            lines.append(
                (
                    order_key,
                    ints[part()],
                    ints[supplier()],
                    line,
                    quantity,
                    extended,
                    discount,
                    tax,
                    returnflag,
                    linestatus,
                    ship,
                    commit,
                    receipt,
                    ship_instruct(),
                    ship_mode(),
                    _comment(line_codes, stream, 2, 5),
                )
            )

        order_rows.append(
            (
                order_key,
                cust,
                status,
                round(total_price, 2),
                ints[day],
                priority(),
                ints[clerk()],
                0,
                _comment(order_codes, stream, 4, 10, plant),
            )
        )
        if len(order_rows) == _LOAD_CHUNK or i == total_orders - 1:
            orders.insert_many(order_rows)
            lineitem.insert_many(lines)
            order_rows.clear()
            lines.clear()
    orders.defer("o_comment", lambda: comment_column(order_codes))
    lineitem.defer("l_comment", lambda: comment_column(line_codes))


def generate(scale_factor: float = 0.01, seed: int = 2007) -> Catalog:
    """Build the full TPC-H catalog at the given scale factor."""
    config = GeneratorConfig(scale_factor=scale_factor, seed=seed)
    catalog = Catalog()
    _populate_region(catalog, stream_for(seed, "region"))
    _populate_nation(catalog, stream_for(seed, "nation"))
    supplier_keys = _keys(config.suppliers)
    part_keys = _keys(config.parts)
    customer_keys = _keys(config.customers)
    _populate_supplier(catalog, stream_for(seed, "supplier"), supplier_keys)
    _populate_part(catalog, stream_for(seed, "part"), part_keys)
    _populate_partsupp(catalog, stream_for(seed, "partsupp"), part_keys, supplier_keys)
    _populate_customer(catalog, stream_for(seed, "customer"), customer_keys)
    _populate_orders_and_lineitem(
        catalog, stream_for(seed, "orders"), config, customer_keys, part_keys, supplier_keys
    )
    return catalog
