"""Unit tests for the TPC-H generator (repro.tpch)."""

import datetime
import hashlib

import pytest

from repro.errors import StorageError
from repro.tpch.generator import END_DATE, START_DATE, GeneratorConfig, generate
from repro.tpch.rng import stream_for
from repro.tpch.text import comment, matches_special_requests


@pytest.fixture(scope="module")
def catalog():
    return generate(scale_factor=0.002, seed=42)


class TestGeneratorConfig:
    def test_cardinalities_scale(self):
        small = GeneratorConfig(scale_factor=0.01)
        large = GeneratorConfig(scale_factor=0.1)
        assert large.customers == 10 * small.customers

    def test_minimum_floor(self):
        tiny = GeneratorConfig(scale_factor=1e-6)
        assert tiny.customers >= 50

    def test_invalid_scale_factor(self):
        with pytest.raises(StorageError):
            GeneratorConfig(scale_factor=0.0)


class TestCatalogShape:
    def test_all_eight_tables_present(self, catalog):
        assert set(catalog.names()) == {
            "region", "nation", "supplier", "customer", "part",
            "partsupp", "orders", "lineitem",
        }

    def test_region_and_nation_fixed(self, catalog):
        assert len(catalog.table("region")) == 5
        assert len(catalog.table("nation")) == 25

    def test_relative_cardinalities(self, catalog):
        customers = len(catalog.table("customer"))
        orders = len(catalog.table("orders"))
        lineitems = len(catalog.table("lineitem"))
        assert orders == 10 * customers
        # 1-7 lineitems per order, so on average ~4x orders.
        assert 2 * orders < lineitems < 8 * orders


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = generate(scale_factor=0.001, seed=7)
        b = generate(scale_factor=0.001, seed=7)
        for name in a.names():
            assert list(a.table(name).rows()) == list(b.table(name).rows())

    def test_different_seed_different_data(self):
        a = generate(scale_factor=0.001, seed=7)
        b = generate(scale_factor=0.001, seed=8)
        assert list(a.table("orders").rows()) != list(b.table("orders").rows())


def catalog_digest(catalog) -> str:
    """SHA-256 over every table, column, value ``repr`` and value type."""
    digest = hashlib.sha256()
    for name in sorted(catalog.names()):
        table = catalog.table(name)
        digest.update(f"{name}|{len(table)}\n".encode())
        for column in table.schema.columns:
            values = table.column(column.name)
            digest.update(f"{column.name}:{column.dtype.value}\n".encode())
            digest.update("\x1f".join(map(repr, values)).encode())
            digest.update("\x1e".join(type(v).__name__ for v in values).encode())
    return digest.hexdigest()


# Recorded at commit 1b8fc4f, where the load was one ``Table.insert`` per
# row, before the generator moved to one column-wise ``insert_many`` per
# table. The golden clocks pin the data only through the queries that
# read it; this pins every value and type of every column.
GENERATED = {
    (0.0005, 2007): "d73317ec720a6bb5ad6093938d55e2f6a4efb1f80f94735609326143e42d30a5",
    (0.002, 7): "ecc82380cfee971961950f48a0d1975c17920925a732591ab11086290a8e69fd",
}


@pytest.mark.parametrize("scale_factor, seed", sorted(GENERATED))
def test_generated_database_is_the_recorded_one(scale_factor, seed):
    assert catalog_digest(generate(scale_factor, seed)) == GENERATED[scale_factor, seed]


class TestOrderDistributions:
    def test_order_dates_in_range(self, catalog):
        dates = catalog.table("orders").column("o_orderdate")
        assert min(dates) >= START_DATE
        assert max(dates) <= END_DATE - 151

    def test_one_third_of_customers_have_no_orders(self, catalog):
        customers = set(catalog.table("customer").column("c_custkey"))
        with_orders = set(catalog.table("orders").column("o_custkey"))
        no_orders = customers - with_orders
        fraction = len(no_orders) / len(customers)
        assert 0.25 < fraction < 0.42

    def test_priorities_roughly_uniform(self, catalog):
        priorities = catalog.table("orders").column("o_orderpriority")
        counts = {}
        for p in priorities:
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == 5
        expected = len(priorities) / 5
        for count in counts.values():
            assert 0.6 * expected < count < 1.4 * expected

    def test_special_requests_fraction(self, catalog):
        comments = catalog.table("orders").column("o_comment")
        hits = sum(1 for c in comments if matches_special_requests(c))
        # Planted at 2% plus a small organic rate from the vocabulary.
        assert 0.005 < hits / len(comments) < 0.10

    def test_order_keys_strictly_increasing(self, catalog):
        keys = list(catalog.table("orders").column("o_orderkey"))
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestLineitemDistributions:
    def test_ship_after_order_date(self, catalog):
        lineitem = catalog.table("lineitem")
        orders = catalog.table("orders")
        order_date = dict(
            zip(orders.column("o_orderkey"), orders.column("o_orderdate"))
        )
        for okey, ship in zip(
            lineitem.column("l_orderkey"), lineitem.column("l_shipdate")
        ):
            assert ship > order_date[okey]

    def test_receipt_after_ship(self, catalog):
        lineitem = catalog.table("lineitem")
        for ship, receipt in zip(
            lineitem.column("l_shipdate"), lineitem.column("l_receiptdate")
        ):
            assert receipt > ship

    def test_commit_before_receipt_is_common_but_not_universal(self, catalog):
        # Q4 depends on a healthy mix of both outcomes.
        lineitem = catalog.table("lineitem")
        flags = [
            commit < receipt
            for commit, receipt in zip(
                lineitem.column("l_commitdate"), lineitem.column("l_receiptdate")
            )
        ]
        fraction = sum(flags) / len(flags)
        assert 0.2 < fraction < 0.8

    def test_quantity_range(self, catalog):
        quantities = catalog.table("lineitem").column("l_quantity")
        assert min(quantities) >= 1.0
        assert max(quantities) <= 50.0

    def test_discount_range(self, catalog):
        discounts = catalog.table("lineitem").column("l_discount")
        assert min(discounts) >= 0.0
        assert max(discounts) <= 0.10 + 1e-9

    def test_q6_predicate_selects_nontrivial_fraction(self, catalog):
        """The Q6 window must select some but not all lineitems."""
        lineitem = catalog.table("lineitem")
        lo = datetime.date(1994, 1, 1).toordinal()
        hi = datetime.date(1995, 1, 1).toordinal()
        hits = 0
        for ship, disc, qty in zip(
            lineitem.column("l_shipdate"),
            lineitem.column("l_discount"),
            lineitem.column("l_quantity"),
        ):
            if lo <= ship < hi and 0.05 <= disc <= 0.07 and qty < 24:
                hits += 1
        assert 0 < hits < len(lineitem)

    def test_linestatus_values(self, catalog):
        statuses = set(catalog.table("lineitem").column("l_linestatus"))
        assert statuses <= {"O", "F"}
        returnflags = set(catalog.table("lineitem").column("l_returnflag"))
        assert returnflags <= {"A", "N", "R"}


class TestTextGeneration:
    def test_comment_word_count(self):
        stream = stream_for(1, "text")
        for _ in range(50):
            text = comment(stream, min_words=4, max_words=10)
            assert 4 <= len(text.split()) <= 12

    def test_planted_special_requests_always_match(self):
        stream = stream_for(1, "text")
        for _ in range(100):
            assert matches_special_requests(comment(stream, plant_special=True))

    def test_matcher_requires_order(self):
        assert matches_special_requests("x special y requests z")
        assert not matches_special_requests("requests then special")
        assert not matches_special_requests("nothing here")
        assert matches_special_requests("specialrequests")
