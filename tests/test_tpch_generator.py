"""Unit tests for the TPC-H generator (repro.tpch)."""

import datetime
import gc
import hashlib
import random
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.tpch import generator as tpch_generator
from repro.tpch.generator import END_DATE, START_DATE, GeneratorConfig, generate
from repro.tpch.rng import Stream, stream_for
from repro.tpch import text as tpch_text
from repro.tpch.text import comment_code, comment_column, matches_special_requests


def comment(stream, min_words=4, max_words=10, plant_special=False):
    """One comment's text: drawn as codes, decoded as a column decodes."""
    codes = comment_code(stream, min_words, max_words, plant_special)
    [text] = comment_column(bytearray(codes))
    return text


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


# The first two were recorded at commit 1b8fc4f, where the load was one
# ``Table.insert`` per row, before the generator moved to one column-wise
# ``insert_many`` per table. The third (the benchmark's ``parallel_dop``
# database at its default seed) was recorded at commit 9562620, while
# ``Stream`` still drew through ``randint``, ``choice`` and ``uniform``.
# The golden clocks pin the data only through the queries that read it;
# this pins every value and type of every column.
GENERATED = {
    (0.0005, 2007): "d73317ec720a6bb5ad6093938d55e2f6a4efb1f80f94735609326143e42d30a5",
    (0.002, 7): "ecc82380cfee971961950f48a0d1975c17920925a732591ab11086290a8e69fd",
    (0.011, 2007): "67e7479a312b92371ef82cd773640ffe670d179a4eee68e42aabd9486edae652",
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

    def test_more_orders_match_than_are_planted(self):
        # 2 % are planted; an unplanted comment matches too when it draws
        # "special" before "requests", which lifts the rate to 3.5 %.
        comments = generate(0.011, 2007).table("orders").column("o_comment")
        assert (len(comments), sum(map(matches_special_requests, comments))) == (16_500, 581)

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


def _word_comment(stream, min_words, max_words, plant_special):
    """A comment drawn over the words themselves, as the generator drew
    its text before it kept codes."""
    words = stream.choice_list(tpch_text._WORDS, stream.uniform_int(min_words, max_words))
    if plant_special:
        pos = stream.uniform_int(0, max(len(words) - 2, 0))
        words[pos:pos] = ["special", "requests"]
    return " ".join(words)


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

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        shape=st.sampled_from([(4, 10, False), (2, 5, False), (4, 10, True)]),
        count=st.integers(1, 40),
    )
    def test_codes_take_the_draws_of_the_words(self, seed, shape, count):
        """The generator's three shapes (most tables, lineitem, a planted
        order): decoded codes are the text a draw over the words made,
        and the two streams stay in step."""
        codes_stream, words_stream = Stream(seed), Stream(seed)
        for _ in range(count):
            decoded = comment_column(bytearray(comment_code(codes_stream, *shape)))
            assert decoded == [_word_comment(words_stream, *shape)]
        assert codes_stream.random() == words_stream.random()

    def test_matcher_requires_order(self):
        assert matches_special_requests("x special y requests z")
        assert not matches_special_requests("requests then special")
        assert not matches_special_requests("nothing here")
        assert matches_special_requests("specialrequests")


# Columns whose values come from a small domain: each is built from codes
# into one prebuilt tuple (``p_mfgr`` is picked from one), so equal values
# are one object. At
# (0.002, 7) every domain reaches past CPython's cached small ints.
SHARED_COLUMNS = (
    ("lineitem", "l_shipdate"),
    ("lineitem", "l_commitdate"),
    ("lineitem", "l_receiptdate"),
    ("lineitem", "l_partkey"),
    ("orders", "o_orderdate"),
    ("orders", "o_custkey"),
    ("orders", "o_clerk"),
    ("part", "p_mfgr"),
)


# ``generate(0.002, 7)``'s traced heap: 3.52-3.65 MB with each comment held
# as its string, 2.29-2.30 MB with comments kept as codes, and
# ENCODED_BOUND_MB with every small-domain column of orders and lineitem
# held as codes too (CPython 3.10-3.13).
FOOTPRINT_BOUND_MB = 2.9
ENCODED_BOUND_MB = 1.7


def traced_generate_mb():
    """``generate(0.002, 7)``'s traced heap, in MB, with nothing read."""
    generate(0.0005, 1)  # any first-call allocation happens outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        catalog = generate(0.002, 7)
        gc.collect()
        traced_mb = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert len(catalog.table("lineitem")) > 0
    return traced_mb


def test_comments_cost_the_database_a_byte_a_word():
    assert traced_generate_mb() < FOOTPRINT_BOUND_MB


def test_an_unread_small_domain_column_costs_the_database_its_codes():
    assert traced_generate_mb() < ENCODED_BOUND_MB


def test_a_small_domain_column_holds_one_object_per_value():
    catalog = generate(0.002, 7)
    for name, column in SHARED_COLUMNS:
        values = catalog.table(name).column(column)
        distinct = len(set(values))
        assert distinct < len(values), (name, column)
        assert len(set(map(id, values))) == distinct, (name, column)


def _integer_and_shared_draws(config: GeneratorConfig):
    """Per replaced draw: the integer draw and the value the generator
    made from it, and the value its column decodes from the code drawn
    over a shared domain that replaced it — each a factory from a
    ``Stream`` to a bound draw."""
    folded = tpch_generator._order_customers(tpch_generator._keys(config.customers))
    days = tpch_generator._DAYS

    def integer_customer(stream):
        draw = stream.ints(1, config.customers)

        def customer():
            key = draw()
            key -= key % 3 == 0
            return max(key, 1)

        return customer

    def integer_clerk(stream):
        draw = stream.ints(1, 1000)
        return lambda: f"Clerk#{draw():09d}"

    def integer_manufacturer(stream):
        return lambda: f"Manufacturer#{stream.uniform_int(1, 5)}"

    def lags(stream):
        return stream.ints(1, 121), stream.ints(30, 90), stream.ints(1, 30)

    def integer_dates(stream):
        order_day = stream.ints(START_DATE, END_DATE - 151)
        ship_lag, commit_lag, receipt_lag = lags(stream)

        def dates():
            order = order_day()
            ship = order + ship_lag()
            return order, ship, order + commit_lag(), ship + receipt_lag()

        return dates

    def shared_dates(stream):
        order_day = stream.ints(0, tpch_generator._ORDER_DAYS - 1)
        ship_lag, commit_lag, receipt_lag = lags(stream)

        def dates():
            day = order_day()
            ship_day = day + ship_lag()
            return days[day], days[ship_day], days[day + commit_lag()], days[ship_day + receipt_lag()]

        return dates

    def decoded(domain):
        def draw(stream):
            code = stream.ints(0, len(domain) - 1)
            return lambda: domain[code()]

        return draw

    def keys(n):
        return decoded(tpch_generator._keys(n))

    def shared_manufacturer(stream):
        return lambda: stream.choice(tpch_generator._MANUFACTURERS)

    return {
        "o_custkey": (integer_customer, decoded(folded)),
        "o_clerk": (integer_clerk, decoded(tpch_generator._CLERKS)),
        "p_mfgr": (integer_manufacturer, shared_manufacturer),
        "dates": (integer_dates, shared_dates),
        "l_partkey": (lambda stream: stream.ints(1, config.parts), keys(config.parts)),
        "l_suppkey": (lambda stream: stream.ints(1, config.suppliers), keys(config.suppliers)),
    }


@pytest.mark.parametrize("scale_factor, seed", sorted(GENERATED))
def test_a_shared_pick_draws_the_value_its_integer_draw_made(scale_factor, seed):
    config = GeneratorConfig(scale_factor, seed)
    for name, (integer, shared) in _integer_and_shared_draws(config).items():
        old_stream, new_stream = Stream(seed), Stream(seed)
        old, new = integer(old_stream), shared(new_stream)
        assert [old() for _ in range(2000)] == [new() for _ in range(2000)], name
        assert old_stream.random() == new_stream.random(), name  # still in step


# Range widths where a rejection loop can go wrong: one value (a 1-bit
# draw that must still be redrawn until it is 0), powers of two (no
# rejection at all) and one past them (almost half rejected), and widths
# above 2**32, where one ``getrandbits`` call spans two twister words.
EDGE_WIDTHS = (1, 2, 3, 4, 5, 8, 9, 37, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**40 + 3)


def reference_draw(rng: random.Random, op):
    """What ``op`` draws from ``random.Random``'s own methods."""
    kind, lo, width, count = op
    if kind in ("int", "ints"):
        return [rng.randint(lo, lo + width - 1) for _ in range(count)]
    if kind in ("choice", "choice_list"):
        return [rng.choice(range(lo, lo + width)) for _ in range(count)]
    if kind in ("float", "floats"):
        return [rng.uniform(lo, lo + width / 7) for _ in range(count)]
    return [rng.random() for _ in range(count)]


def stream_draw(stream: Stream, op):
    """The same draws through ``Stream``, the bound forms bound once."""
    kind, lo, width, count = op
    options = range(lo, lo + width)
    if kind == "int":
        return [stream.uniform_int(lo, lo + width - 1) for _ in range(count)]
    if kind == "ints":
        draw = stream.ints(lo, lo + width - 1)
        return [draw() for _ in range(count)]
    if kind == "choice":
        return [stream.choice(options) for _ in range(count)]
    if kind == "choice_list":
        return stream.choice_list(options, count)
    if kind == "float":
        return [stream.uniform_float(lo, lo + width / 7) for _ in range(count)]
    if kind == "floats":
        draw = stream.floats(lo, lo + width / 7)
        return [draw() for _ in range(count)]
    return [stream.random() for _ in range(count)]


DRAW_KINDS = ("int", "ints", "choice", "choice_list", "float", "floats", "random")
draw_ops = st.tuples(
    st.sampled_from(DRAW_KINDS),
    st.integers(-(2**40), 2**40),
    st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 2**62)),
    st.integers(0, 6),
)


class TestStreamMatchesRandom:
    """``Stream`` takes the same twister words, in the same order, as
    ``random.Random``'s ``randint``/``choice``/``uniform``/``random``:
    the generated database does not depend on which it calls."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64), ops=st.lists(draw_ops, max_size=30))
    def test_interleaved_draws_equal_random_random(self, seed, ops):
        stream, rng = Stream(seed), random.Random(seed)
        for op in ops:
            assert stream_draw(stream, op) == reference_draw(rng, op), op
        assert stream.random() == rng.random()  # still in step afterwards

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_every_edge_width_in_every_form(self, width):
        stream, rng = Stream(width), random.Random(width)
        for kind in DRAW_KINDS:
            op = (kind, -3, width, 5)
            assert stream_draw(stream, op) == reference_draw(rng, op), op

    def test_stream_for_seeds_by_table_name(self):
        expected = random.Random(2007 ^ zlib.crc32(b"orders"))
        assert stream_for(2007, "orders").uniform_int(1, 4) == expected.randint(1, 4)


class TestEmptyRanges:
    """A bare rejection loop over zero values would never return
    (``getrandbits(0)`` is 0, and ``0 >= 0``): empty ranges raise what
    ``randint`` and ``choice`` raise, the bound forms when bound."""

    def test_uniform_int_over_an_empty_range_raises_value_error(self):
        stream = Stream(1)
        with pytest.raises(ValueError):
            stream.uniform_int(5, 4)
        with pytest.raises(ValueError):
            random.Random(1).randint(5, 4)
        with pytest.raises(ValueError):
            stream.ints(0, -1)

    def test_choice_from_an_empty_sequence_raises_index_error(self):
        stream = Stream(1)
        with pytest.raises(IndexError):
            stream.choice(())
        with pytest.raises(IndexError):
            random.Random(1).choice(())
        with pytest.raises(IndexError):
            stream.choice_list((), 3)

    def test_a_failed_guard_draws_nothing(self):
        stream, rng = Stream(3), random.Random(3)
        for bad in (lambda: stream.uniform_int(1, 0), lambda: stream.choice("")):
            with pytest.raises((ValueError, IndexError)):
                bad()
        assert stream.uniform_int(1, 6) == rng.randint(1, 6)
