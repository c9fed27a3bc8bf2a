"""A governed aggregate or hash join spills only what overflows its grant.

A governed operator counts its resident state as one table:
⌈resident rows / ``page_rows``⌉ pages over all its resident partitions
together, the count the model's working-set estimate uses. So state of
exactly ``pages × page_rows`` groups (aggregate) or build rows (hash
join) never spills, however the partitions split it, and one row more
does. State that fits is never partitioned — not one key goes through
a :class:`~repro.engine.operators.partitioning.PartitionMemo` — and the
grant notes ``spilled_partitions=0``; one row more partitions and
spills. Either way the answer equals the reference executor's, and the
broker and pool are quiescent afterwards: nothing reserved or in use,
every grant closed, no spill page left in the pool.
"""

from dataclasses import replace

import pytest

from repro.engine import (
    IO_AWARE_COST_MODEL,
    AggSpec,
    Engine,
    MemoryBroker,
    aggregate,
    execute_reference,
    hash_join,
    scan,
)
from repro.engine.expressions import col
from repro.engine.memory import grant_notes
from repro.engine.operators import partitioning
from repro.sim import Simulator
from repro.storage import BufferPool, Catalog, DataType, Schema

PAGE_ROWS = 4
# At every grant and fanout of the sweep, keys seven apart split the
# state that fits into partitions whose rows, each rounded up to whole
# pages, add up past the grant: what a per-partition count would spill.
KEY_STRIDE = 7
TABLES = ("t", "build_side", "probe_side")


def _catalog(rows: int) -> Catalog:
    """``rows`` groups of ``t`` (three input rows each, interleaved), and
    a build side of ``rows`` rows over ``rows // 2 + 1`` keys, which the
    probe rows meet or miss. Keys are multiples of ``KEY_STRIDE``."""
    catalog = Catalog()
    schema = Schema([("g", DataType.INT), ("v", DataType.FLOAT)])
    catalog.create("t", schema).insert_many(
        (i % rows * KEY_STRIDE, float(i % 13)) for i in range(3 * rows)
    )
    keys = rows // 2 + 1
    build = Schema([("bk", DataType.INT), ("bv", DataType.INT)])
    catalog.create("build_side", build).insert_many(
        (i % keys * KEY_STRIDE, i) for i in range(rows)
    )
    probe = Schema([("pk", DataType.INT), ("pv", DataType.INT)])
    catalog.create("probe_side", probe).insert_many(
        (i % (keys + 2) * KEY_STRIDE, i) for i in range(40)
    )
    return catalog


def _plan(catalog, kind: str, fanout: int):
    if kind == "aggregate":
        node = aggregate(
            scan(catalog, "t", columns=["g", "v"]),
            ("g",),
            [AggSpec("sum", "total", col("v")), AggSpec("count", "n")],
            op_id="agg",
        )
    else:
        node = hash_join(
            scan(catalog, "build_side"),
            scan(catalog, "probe_side"),
            build_key="bk",
            probe_key="pk",
            op_id="join",
        )
    return replace(node, params={**node.params, "fanout": fanout})


def _run(kind: str, pages: int, fanout: int, rows: int):
    catalog = _catalog(rows)
    plan = _plan(catalog, kind, fanout)
    sim = Simulator(processors=2)
    engine = Engine(
        catalog,
        sim,
        costs=IO_AWARE_COST_MODEL,
        page_rows=PAGE_ROWS,
        buffer_pool=BufferPool(64),
        memory=MemoryBroker(pages),
    )
    handle = engine.execute(plan, f"{kind}@{pages}")
    sim.run()
    # Quiescent: the grant returned, nothing held, no spill frame left.
    memory, pool = engine.memory, engine.pool
    (grant,) = memory.grants()
    assert grant.pages == pages
    assert grant.closed
    assert memory.reserved == memory.in_use == 0
    assert len(pool) == sum(pool.resident_pages(name) for name in TABLES)
    notes = grant_notes(memory.grants(), plan.op_id)
    return sorted(handle.rows), sorted(execute_reference(plan, catalog)), engine, notes


@pytest.fixture
def hashed(monkeypatch):
    """Every key a partition memo hashes (its ``__missing__`` calls)."""
    keys = []
    missing = partitioning.PartitionMemo.__missing__

    def counted(memo, key):
        keys.append(key)
        return missing(memo, key)

    monkeypatch.setattr(partitioning.PartitionMemo, "__missing__", counted)
    return keys


SWEEP = pytest.mark.parametrize(
    "kind, pages, fanout",
    [
        (kind, pages, fanout)
        for kind in ("aggregate", "hash_join")
        for pages in (1, 2, 4)
        for fanout in (2, 8)
    ],
)


@SWEEP
def test_state_that_fits_its_grant_never_spills(kind, pages, fanout, hashed):
    got, expected, engine, notes = _run(kind, pages, fanout, pages * PAGE_ROWS)
    assert engine.pool.stats.spill_pages_written == 0
    assert engine.memory.overcommits == 0
    assert hashed == []
    assert notes == {"spilled_partitions": 0}
    assert got == expected


@SWEEP
def test_one_row_past_the_grant_spills(kind, pages, fanout, hashed):
    got, expected, engine, notes = _run(kind, pages, fanout, pages * PAGE_ROWS + 1)
    assert engine.pool.stats.spill_pages_written > 0
    assert hashed
    assert 0 < notes["spilled_partitions"] <= max(2, min(fanout, pages))
    assert got == expected
