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
* ~2% of order comments match ``%special%requests%`` (Q13's filter),
* five order priorities uniform (Q4's groups),
* quantity/discount uniform (Q6's selectivity ~2%).

Everything is seeded; the same ``(scale_factor, seed)`` pair always
yields the identical database.
"""

from __future__ import annotations

import datetime as _dt

from repro.errors import StorageError
from repro.storage.catalog import Catalog
from repro.tpch import schema as tpch_schema
from repro.tpch.rng import Stream, stream_for
from repro.tpch.text import SPECIAL_REQUEST_PROBABILITY, comment

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


def _populate_region(catalog: Catalog, stream: Stream) -> None:
    table = catalog.create("region", tpch_schema.REGION)
    table.insert_many([(key, name, comment(stream)) for key, name in enumerate(_REGIONS)])


def _populate_nation(catalog: Catalog, stream: Stream) -> None:
    table = catalog.create("nation", tpch_schema.NATION)
    table.insert_many(
        [(key, name, key % len(_REGIONS), comment(stream)) for key, name in enumerate(_NATIONS)]
    )


def _phone(stream: Stream) -> str:
    return (
        f"{stream.uniform_int(10, 34)}-{stream.uniform_int(100, 999)}-"
        f"{stream.uniform_int(100, 999)}-{stream.uniform_int(1000, 9999)}"
    )


def _populate_supplier(catalog: Catalog, stream: Stream, config: GeneratorConfig) -> None:
    table = catalog.create("supplier", tpch_schema.SUPPLIER)
    table.insert_many(
        [
            (
                key,
                f"Supplier#{key:09d}",
                f"addr-{stream.uniform_int(1000, 9999)}",
                stream.uniform_int(0, len(_NATIONS) - 1),
                _phone(stream),
                round(stream.uniform_float(-999.99, 9999.99), 2),
                comment(stream),
            )
            for key in range(1, config.suppliers + 1)
        ]
    )


def _populate_part(catalog: Catalog, stream: Stream, config: GeneratorConfig) -> None:
    table = catalog.create("part", tpch_schema.PART)
    table.insert_many(
        [
            (
                key,
                f"part {key} {stream.choice(_TYPES).lower()}",
                f"Manufacturer#{stream.uniform_int(1, 5)}",
                stream.choice(_BRANDS),
                stream.choice(_TYPES),
                stream.uniform_int(1, 50),
                stream.choice(_CONTAINERS),
                round(900 + key / 10 % 1000 + 0.01 * (key % 100), 2),
                comment(stream),
            )
            for key in range(1, config.parts + 1)
        ]
    )


def _populate_partsupp(catalog: Catalog, stream: Stream, config: GeneratorConfig) -> None:
    table = catalog.create("partsupp", tpch_schema.PARTSUPP)
    table.insert_many(
        [
            (
                part_key,
                stream.uniform_int(1, config.suppliers),
                stream.uniform_int(1, 9999),
                round(stream.uniform_float(1.0, 1000.0), 2),
                comment(stream),
            )
            for part_key in range(1, config.parts + 1)
            for _ in range(2)  # spec has 4 per part; 2 keeps small SFs lean
        ]
    )


def _populate_customer(catalog: Catalog, stream: Stream, config: GeneratorConfig) -> None:
    table = catalog.create("customer", tpch_schema.CUSTOMER)
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
                comment(stream),
            )
            for key in range(1, config.customers + 1)
        ]
    )


def _populate_orders_and_lineitem(
    catalog: Catalog, stream: Stream, config: GeneratorConfig
) -> None:
    orders = catalog.create("orders", tpch_schema.ORDERS)
    lineitem = catalog.create("lineitem", tpch_schema.LINEITEM)
    order_rows = []
    lines = []
    order_key = 0
    total_orders = config.customers * config.orders_per_customer
    for i in range(total_orders):
        order_key += stream.uniform_int(1, 4)  # sparse keys, as in the spec
        # Spec: only two thirds of customers have orders (Q13's spike).
        cust_key = stream.uniform_int(1, config.customers)
        cust_key -= cust_key % 3 == 0  # fold multiples of 3 onto neighbours
        cust_key = max(cust_key, 1)
        order_date = stream.uniform_int(START_DATE, END_DATE - 151)
        n_lines = stream.uniform_int(1, 7)
        plant = stream.sample_bool(SPECIAL_REQUEST_PROBABILITY)
        status = stream.choice(_ORDER_STATUS)

        total_price = 0.0
        for line_no in range(1, n_lines + 1):
            quantity = float(stream.uniform_int(1, 50))
            extended = round(quantity * stream.uniform_float(900.0, 1100.0), 2)
            discount = round(stream.uniform_int(0, 10) / 100.0, 2)
            tax = round(stream.uniform_int(0, 8) / 100.0, 2)
            ship = order_date + stream.uniform_int(1, 121)
            commit = order_date + stream.uniform_int(30, 90)
            receipt = ship + stream.uniform_int(1, 30)
            returnflag = stream.choice(("R", "A")) if stream.sample_bool(0.5) else "N"
            linestatus = "O" if stream.sample_bool(0.5) else "F"
            total_price += extended
            lines.append(
                (
                    order_key,
                    stream.uniform_int(1, config.parts),
                    stream.uniform_int(1, config.suppliers),
                    line_no,
                    quantity,
                    extended,
                    discount,
                    tax,
                    returnflag,
                    linestatus,
                    ship,
                    commit,
                    receipt,
                    stream.choice(_SHIP_INSTRUCT),
                    stream.choice(_SHIP_MODES),
                    comment(stream, min_words=2, max_words=5),
                )
            )

        order_rows.append(
            (
                order_key,
                cust_key,
                status,
                round(total_price, 2),
                order_date,
                stream.choice(_PRIORITIES),
                f"Clerk#{stream.uniform_int(1, 1000):09d}",
                0,
                comment(stream, plant_special=plant),
            )
        )
        if len(order_rows) == _LOAD_CHUNK or i == total_orders - 1:
            orders.insert_many(order_rows)
            lineitem.insert_many(lines)
            order_rows.clear()
            lines.clear()


def generate(scale_factor: float = 0.01, seed: int = 2007) -> Catalog:
    """Build the full TPC-H catalog at the given scale factor."""
    config = GeneratorConfig(scale_factor=scale_factor, seed=seed)
    catalog = Catalog()
    _populate_region(catalog, stream_for(seed, "region"))
    _populate_nation(catalog, stream_for(seed, "nation"))
    _populate_supplier(catalog, stream_for(seed, "supplier"), config)
    _populate_part(catalog, stream_for(seed, "part"), config)
    _populate_partsupp(catalog, stream_for(seed, "partsupp"), config)
    _populate_customer(catalog, stream_for(seed, "customer"), config)
    _populate_orders_and_lineitem(catalog, stream_for(seed, "orders"), config)
    return catalog
