"""MemoryBroker: grants, high-water marks, overcommit accounting."""

import sys

import pytest

from repro.db import Database, RuntimeConfig
from repro.engine import Engine, MemoryBroker, aggregate, execute_reference, hash_join, scan, sort
from repro.engine.memory import UNBOUNDED, MemoryGrant
from repro.engine.plan import AggSpec
from repro.errors import EngineError
from repro.experiments.common import shared_catalog
from repro.obs.metrics import MetricsRegistry
from repro.sim.simulator import Simulator
from repro.storage import Catalog, DataType, Schema
from repro.tpch.queries import build


class TestGrants:
    def test_grant_caps_at_available(self):
        broker = MemoryBroker(10)
        first = broker.grant("a", 6)
        second = broker.grant("b", 6)
        assert first.pages == 6
        assert second.pages == 4
        assert broker.available() == 0

    def test_default_request_takes_everything(self):
        broker = MemoryBroker(8)
        assert broker.grant("a").pages == 8

    def test_starved_grant_still_gets_one_page(self):
        broker = MemoryBroker(2)
        broker.grant("a")
        starved = broker.grant("b", 5)
        assert starved.pages == 1  # guaranteed minimum, no deadlock

    def test_close_releases_budget(self):
        broker = MemoryBroker(6)
        grant = broker.grant("a", 6)
        grant.close()
        assert broker.available() == 6
        assert broker.grant("b", 4).pages == 4

    def test_close_is_idempotent(self):
        broker = MemoryBroker(4)
        grant = broker.grant("a", 2)
        grant.close()
        grant.close()  # must not release the budget twice
        assert broker.reserved == 0
        assert broker.available() == 4

    def test_work_mem_must_be_positive(self):
        with pytest.raises(EngineError):
            MemoryBroker(0)

    def test_bad_request_rejected(self):
        broker = MemoryBroker(4)
        with pytest.raises(EngineError):
            broker.grant("a", 0)

    def test_snapshot_shows_what_was_requested(self):
        broker = MemoryBroker(4)
        broker.grant("first")
        broker.grant("starved", 3)
        first, starved = broker.grants()
        assert (first.pages, first.requested) == (4, 4)  # no size: work_mem
        assert (starved.pages, starved.requested) == (1, 3)


class TestUsageTracking:
    def test_high_water_marks(self):
        broker = MemoryBroker(10)
        a = broker.grant("a", 5)
        b = broker.grant("b", 5)
        a.resize_used(3)
        b.resize_used(4)
        a.resize_used(1)
        assert broker.in_use == 5
        assert broker.high_water == 7
        assert a.high_water == 3
        assert b.high_water == 4

    def test_overcommit_counted_once_per_grant(self):
        broker = MemoryBroker(4)
        grant = broker.grant("a", 2)
        grant.resize_used(3)
        grant.resize_used(5)
        assert broker.overcommits == 1

    def test_resize_after_close_raises(self):
        broker = MemoryBroker(4)
        grant = broker.grant("a", 2)
        grant.close()
        with pytest.raises(EngineError, match="closed"):
            grant.resize_used(1)

    def test_negative_usage_rejected(self):
        broker = MemoryBroker(4)
        grant = broker.grant("a", 2)
        with pytest.raises(EngineError):
            grant.resize_used(-1)

    def test_snapshot_reflects_grants(self):
        broker = MemoryBroker(6)
        grant = broker.grant("join@1", 4)
        grant.resize_used(2)
        assert broker.in_use == 2
        (snap,) = broker.grants()
        assert (snap.owner, snap.pages, snap.used, snap.high_water) == ("join@1", 4, 2, 2)
        assert not snap.closed


class TestStarvedSibling:
    """Two unshared Q1s on ``laptop``: the first ``q1_agg`` opens with all
    32 pages of ``work_mem``, the second is starved to one page. Q1 has
    four groups, one page of state, so the starved aggregate still fits
    and spills nothing."""

    def test_one_page_grant_holds_one_page_of_groups(self):
        catalog = shared_catalog(0.001, 2007)
        session = Database.open(catalog, RuntimeConfig.preset("laptop"))
        query = build("q1", catalog)
        for i in range(2):
            session.submit(query.plan, label=f"q1_{i}", share=False)
        result = session.run_all()[-1]
        first, starved = (g for g in result.grants if g.owner == "q1_agg")
        assert (first.pages, first.requested) == (32, 32)
        assert (starved.pages, starved.requested, starved.high_water) == (1, 32, 1)
        # The newest q1_agg grant is the starved one: it fit, so no
        # partition went to disk.
        assert result.grant_notes("q1_agg") == {"spilled_partitions": 0}
        assert session.engine.memory.overcommits == 0
        assert session.metrics().snapshot()["spill.pages_written"] == 0


class TestUngovernedGrant:
    """An ungoverned engine's spilling operators hold ``UNBOUNDED``: a
    grant that never overflows and that no broker, metric or span sees."""

    def test_join_aggregate_sort_run_on_the_inert_singleton(self):
        catalog = Catalog()
        catalog.create("a", Schema([("ak", DataType.INT), ("g", DataType.INT)])).insert_many(
            [(i, i % 7) for i in range(300)]
        )
        catalog.create("b", Schema([("bk", DataType.INT)])).insert_many(
            [(i % 150,) for i in range(400)]
        )
        build, probe = scan(catalog, "b", op_id="sb"), scan(catalog, "a", op_id="sa")
        joined = hash_join(build, probe, "bk", "ak")
        plan = sort(
            aggregate(joined, ["g"], [AggSpec("count", "n")], op_id="agg"),
            [("n", False), ("g", True)],
            op_id="ord",
        )
        sim = Simulator(processors=2)
        engine = Engine(catalog, sim, page_rows=8)
        handle = engine.execute(plan, "q")
        sim.run()

        assert handle.rows == execute_reference(plan, catalog)
        assert engine.memory is None
        names = MetricsRegistry.for_engine(engine).snapshot()
        assert not [name for name in names if name.startswith("memory.")]
        grant = engine.ctx.grant("any", 4)
        assert grant is UNBOUNDED
        # The singleton is shared by every operator: it holds no state
        # for note / resize_used / close to change.
        assert not hasattr(grant, "__dict__")
        grant.note(sort_runs=3)
        grant.resize_used(10**9)
        grant.close()
        assert UNBOUNDED.pages == sys.maxsize
        assert engine.ctx.grant("again") is UNBOUNDED


class TestUnchangedCountNotReported:
    """A spilling hash join's build and an external sort's intake report
    their page count only when it changes. A repeated count changes no
    observable: a run whose every ``resize_used`` call is made twice has
    the same answer, clock, grant snapshots (``used``, ``high_water``),
    overcommits and broker high water."""

    @staticmethod
    def _run(kind):
        catalog = Catalog()
        catalog.create("b", Schema([("bk", DataType.INT), ("bv", DataType.INT)])).insert_many(
            [(i % 90, i) for i in range(240)]
        )
        catalog.create("p", Schema([("pk", DataType.INT), ("pv", DataType.INT)])).insert_many(
            [((i * 7) % 120, i) for i in range(300)]
        )
        if kind == "hash_join":
            plan = hash_join(scan(catalog, "b"), scan(catalog, "p"), "bk", "pk", op_id="join")
        else:
            plan = sort(scan(catalog, "p"), [("pk", False), ("pv", True)], op_id="ord")
        sim = Simulator(processors=2)
        engine = Engine(catalog, sim, page_rows=8, memory=MemoryBroker(3))
        handle = engine.execute(plan, kind)
        sim.run()
        memory = engine.memory
        assert engine.pool.stats.spill_pages_written > 0
        grants = [(g.owner, g.used, g.high_water) for g in memory.grants()]
        observed = (grants, memory.overcommits, memory.high_water, sim.now)
        return handle.rows, observed, execute_reference(plan, catalog)

    @pytest.mark.parametrize("kind", ["hash_join", "sort"])
    def test_a_repeated_count_is_skipped_and_would_change_nothing(self, kind, monkeypatch):
        resize = MemoryGrant.resize_used
        repeats = []

        def recorded(grant, used_pages):
            if sys._getframe(1).f_code.co_name in ("_build", "next_batch"):
                repeats.append(used_pages == grant.used)
            resize(grant, used_pages)

        monkeypatch.setattr(MemoryGrant, "resize_used", recorded)
        rows, observed, reference = self._run(kind)
        assert repeats and not any(repeats)
        if kind == "sort":
            assert rows == reference
        else:
            assert sorted(rows) == sorted(reference)

        def twice(grant, used_pages):
            resize(grant, used_pages)
            resize(grant, used_pages)

        monkeypatch.setattr(MemoryGrant, "resize_used", twice)
        assert self._run(kind)[:2] == (rows, observed)
