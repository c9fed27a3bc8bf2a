"""The resource outlook automates the fig_mem Part B decision flip.

A warm-profiled (CPU-only) spec for a scan-heavy query says *don't
share* on many cores; the outlook's projections must flip that to
*share* against a cold pool (unshared tenants each pay the full
``io_page`` bill), cancel the flip again when cooperative scans make
unshared execution I/O-efficient, and flip it on spill pressure when
consolidation avoids spills.
"""

import pytest

from repro.core.spec import QuerySpec, chain, op
from repro.engine import CostModel, MemoryBroker
from repro.policies import ModelGuidedPolicy, ResourceOutlook, ResourceProfile
from repro.policies.online_model import OnlineModelGuidedPolicy
from repro.storage import BufferPool, Catalog, DataType, ScanShareManager, Schema

COSTS = CostModel(io_page=400.0)
PAGE_ROWS = 64
TABLE_PAGES = 94
# The flip regime needs more consumers than processors (sharing wins
# by eliminating duplicated total work); with m <= n every unshared
# query runs fully parallel and the pivot's serialization decides.
GROUP, PROCESSORS = 8, 4


# A scan-heavy spec at the engine's scale (warm scan of ~94 pages x
# 64 tuples), output cost a large fraction of scan work — the paper's
# harmful-sharing regime on ample processors.
def _scan_heavy_spec():
    root = chain(
        op("scan", 6000.0, 3000.0),
        op("agg", 1200.0, 60.0),
    )
    return QuerySpec(root=root, label="q"), "scan"


def _table(catalog, name=None, rows=TABLE_PAGES * PAGE_ROWS):
    schema = Schema([("k", DataType.INT)])
    table = catalog.create(name or "t", schema)
    table.insert_many([(i,) for i in range(rows)])
    return table


class TestIoProjection:
    def make_policy(self, pool, scans=None, memory=None, work_pages=0):
        spec, pivot = _scan_heavy_spec()
        outlook = ResourceOutlook(
            {"q": ResourceProfile(table="t", pages=TABLE_PAGES,
                                  work_pages=work_pages)},
            costs=COSTS, pool=pool, scans=scans, memory=memory,
        )
        return ModelGuidedPolicy({"q": (spec, pivot)}, outlook=outlook)

    def test_warm_pool_keeps_cpu_decision(self):
        catalog = Catalog()
        table = _table(catalog)
        pool = BufferPool(TABLE_PAGES * 2)
        pool.prewarm_table(table, PAGE_ROWS)
        policy = self.make_policy(pool)
        assert policy.should_share("q", GROUP, processors=PROCESSORS).share is False

    def test_cold_pool_flips_to_share(self):
        pool = BufferPool(TABLE_PAGES * 2)
        policy = self.make_policy(pool)
        assert policy.should_share("q", GROUP, processors=PROCESSORS).share is True

    def test_no_outlook_never_flips(self):
        spec, pivot = _scan_heavy_spec()
        policy = ModelGuidedPolicy({"q": (spec, pivot)})
        assert policy.should_share("q", GROUP, processors=PROCESSORS).share is False

    def test_cooperative_scans_cancel_the_flip(self):
        """With the elevator manager attached, unshared scans already
        share the physical pass — the decision returns to CPU terms."""
        pool = BufferPool(TABLE_PAGES * 2)
        manager = ScanShareManager(pool, prefetch_depth=2)
        policy = self.make_policy(pool, scans=manager)
        assert policy.should_share("q", GROUP, processors=PROCESSORS).share is False

    def test_decisions_not_cached_with_outlook(self):
        """Warming the pool between arrivals changes the verdict."""
        catalog = Catalog()
        table = _table(catalog)
        pool = BufferPool(TABLE_PAGES * 2)
        policy = self.make_policy(pool)
        assert policy.should_share("q", GROUP, processors=PROCESSORS).share is True
        pool.prewarm_table(table, PAGE_ROWS)
        assert policy.should_share("q", GROUP, processors=PROCESSORS).share is False


class TestSpillProjection:
    def test_spill_pressure_flips_to_share(self):
        """Warm cache, but m queries' working memory would spill
        while one shared copy fits: consolidation wins."""
        catalog = Catalog()
        table = _table(catalog)
        pool = BufferPool(TABLE_PAGES * 2)
        pool.prewarm_table(table, PAGE_ROWS)
        spec, pivot = _scan_heavy_spec()

        def policy_with(work_mem):
            outlook = ResourceOutlook(
                {"q": ResourceProfile(table="t", pages=TABLE_PAGES,
                                      work_pages=40)},
                costs=CostModel(io_page=400.0, spill_page=500.0),
                pool=pool,
                memory=MemoryBroker(work_mem),
            )
            return ModelGuidedPolicy({"q": (spec, pivot)}, outlook=outlook)

        # Ample memory: everything fits, CPU decision holds.
        assert policy_with(1000).should_share("q", GROUP, PROCESSORS).share is False
        # Tight memory: 8 x 40 pages >> 48 available, sharing avoids
        # the spills.
        assert policy_with(48).should_share("q", GROUP, PROCESSORS).share is True

    def test_broker_projection_values(self):
        broker = MemoryBroker(100)
        assert broker.projected_spill(40) == 0
        assert broker.projected_spill(40, operators=2) == 0
        assert broker.projected_spill(40, operators=3) == 20
        broker.grant("op", 60)
        assert broker.projected_spill(40) == 0
        assert broker.projected_spill(50) == 10


class TestAdjustedSpec:
    def test_zero_extra_returns_same_spec(self):
        spec, pivot = _scan_heavy_spec()
        outlook = ResourceOutlook({}, costs=COSTS, pool=BufferPool(4))
        assert outlook.adjusted_spec("q", spec, pivot, 8) is spec

    def test_extra_lands_on_pivot_only(self):
        spec, pivot = _scan_heavy_spec()
        outlook = ResourceOutlook(
            {"q": ResourceProfile(table="t", pages=TABLE_PAGES)},
            costs=COSTS, pool=BufferPool(TABLE_PAGES * 2),
        )
        m = 8
        adjusted = outlook.adjusted_spec("q", spec, pivot, m)
        expected = TABLE_PAGES * (m - 1) / (m - 1) * COSTS.io_page
        assert adjusted[pivot].work == pytest.approx(
            spec[pivot].work + expected
        )
        assert adjusted["agg"].work == spec["agg"].work
        assert adjusted[pivot].output_cost == spec[pivot].output_cost

    def test_singleton_group_never_adjusted(self):
        spec, pivot = _scan_heavy_spec()
        outlook = ResourceOutlook(
            {"q": ResourceProfile(table="t", pages=TABLE_PAGES)},
            costs=COSTS, pool=BufferPool(4),
        )
        assert outlook.pivot_extra_work("q", 1) == 0.0


class TestOnlinePolicyOutlook:
    def test_online_policy_accepts_outlook(self):
        """The online policy threads the outlook through its
        estimator-backed decision path."""
        from repro.tpch.generator import generate
        from repro.tpch.queries import build

        catalog = generate(scale_factor=0.001, seed=7)
        query = build("q6", catalog)
        outlook = ResourceOutlook(
            {"q6": ResourceProfile(table="lineitem", pages=TABLE_PAGES)},
            costs=COSTS, pool=BufferPool(4),
        )
        policy = OnlineModelGuidedPolicy(
            {"q6": query}, exploration_budget=1, outlook=outlook,
        )
        # Cold estimator explores regardless of the outlook.
        assert policy.should_share("q6", 4, processors=8) is True
