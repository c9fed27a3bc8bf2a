"""Tenant-partitioned buffer pool: quotas, self-eviction, isolation."""

import pytest

from repro.db import RuntimeConfig
from repro.errors import StorageError
from repro.storage import (
    SHARED_PARTITION,
    TenantPartitionedPool,
    TenantShare,
    table_page_key,
)


def make_pool(capacity=10, shares=None):
    shares = shares if shares is not None else (
        TenantShare("acme", 4, tables=("orders",)),
        TenantShare("beta", 3, tables=("parts",)),
    )
    return TenantPartitionedPool(capacity, shares)


class TestConstruction:
    def test_share_validation(self):
        with pytest.raises(StorageError, match="non-empty name"):
            TenantShare("", 1)
        with pytest.raises(StorageError, match="reserved"):
            TenantShare(SHARED_PARTITION, 1)
        with pytest.raises(StorageError, match=">= 1 page"):
            TenantShare("acme", 0)

    def test_shares_must_fit_the_pool(self):
        with pytest.raises(StorageError, match="sum to 11"):
            make_pool(capacity=10, shares=(
                TenantShare("acme", 6), TenantShare("beta", 5),
            ))

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(StorageError, match="duplicate"):
            make_pool(shares=(TenantShare("acme", 2), TenantShare("acme", 2)))

    def test_table_owned_twice_rejected(self):
        with pytest.raises(StorageError, match="owned by both"):
            make_pool(shares=(
                TenantShare("acme", 2, tables=("orders",)),
                TenantShare("beta", 2, tables=("orders",)),
            ))

    def test_needs_at_least_one_share(self):
        with pytest.raises(StorageError, match=">= 1 share"):
            TenantPartitionedPool(10, ())

    def test_only_lru_supported(self):
        with pytest.raises(StorageError, match="must be 'lru'"):
            TenantPartitionedPool(10, (TenantShare("acme", 2),), policy="mru")

    def test_config_tenants_knob_builds_a_partitioned_pool(self):
        config = RuntimeConfig(
            pool_pages=10,
            tenants=(TenantShare("acme", 4), TenantShare("beta", 3)),
        )
        pool, _, _, _ = config.build_storage()
        assert isinstance(pool, TenantPartitionedPool)
        assert pool.quota_of("acme") == 4
        assert pool.quota_of(SHARED_PARTITION) == 3

    def test_config_tenants_require_pool_pages(self):
        with pytest.raises(Exception):
            RuntimeConfig(tenants=(TenantShare("acme", 4),))

    def test_config_tenants_must_fit(self):
        with pytest.raises(Exception):
            RuntimeConfig(
                pool_pages=4,
                tenants=(TenantShare("acme", 4), TenantShare("beta", 3)),
            )


class TestRouting:
    def test_owned_table_bills_its_tenant(self):
        pool = make_pool()
        assert pool.tenant_of_table("orders") == "acme"
        assert pool.tenant_of_table("parts") == "beta"

    def test_unowned_table_and_spill_bill_shared(self):
        pool = make_pool()
        assert pool.tenant_of_table("lineitem") == SHARED_PARTITION
        assert pool.tenant_policy.partition_of(("spill", 0, 1)) == SHARED_PARTITION


class TestQuotaEnforcement:
    def test_tenant_at_quota_self_evicts_lru(self):
        pool = make_pool()
        for i in range(4):
            pool.access(table_page_key("orders", i))
        # Touch page 0 so page 1 becomes acme's LRU.
        pool.access(table_page_key("orders", 0))
        pool.access(table_page_key("orders", 4))
        assert pool.tenant_residency()["acme"] == 4
        assert table_page_key("orders", 1) not in pool
        assert table_page_key("orders", 0) in pool

    def test_hot_tenant_never_evicts_a_neighbour(self):
        pool = make_pool()
        for i in range(3):
            pool.access(table_page_key("parts", i))
        # acme loops a working set twice its own quota.
        for loop in range(3):
            for i in range(8):
                pool.access(table_page_key("orders", i))
        residency = pool.tenant_residency()
        assert residency["beta"] == 3  # untouched by acme's churn
        assert residency["acme"] == 4
        pool.check_isolation()

    def test_check_isolation_reports_violations(self):
        pool = make_pool()
        pool.access(table_page_key("orders", 0))
        # Corrupt the books to prove the checker checks.
        pool.tenant_policy._residency["acme"] = 99
        with pytest.raises(StorageError, match="over its"):
            pool.check_isolation()

    def test_zero_headroom_rejects_shared_pages(self):
        pool = make_pool(capacity=7)  # shares sum to exactly 7
        with pytest.raises(StorageError, match="no pages"):
            pool.access(table_page_key("lineitem", 0))

    def test_pinned_full_partition_raises(self):
        pool = make_pool()
        for i in range(4):
            pool.access(table_page_key("orders", i), pin=True)
        with pytest.raises(StorageError, match="every frame is pinned"):
            pool.access(table_page_key("orders", 4))

    def test_global_victim_picks_most_over_quota_partition(self):
        pool = make_pool()
        for i in range(2):
            pool.access(table_page_key("orders", i))
        for i in range(3):
            pool.access(table_page_key("parts", i))
        # beta is at quota (excess 0), acme below (excess -2).
        victim = pool.tenant_policy.victim(pool.is_pinned)
        assert victim[1] == "parts"


class TestInheritedBehaviour:
    def test_hits_and_misses_count_as_in_the_base_pool(self):
        pool = make_pool()
        assert pool.access(table_page_key("orders", 0)) is False  # miss
        assert pool.access(table_page_key("orders", 0)) is True  # hit
        assert (pool.stats.hits, pool.stats.misses) == (1, 1)

    def test_residency_report_lists_shared_last(self):
        pool = make_pool()
        assert list(pool.tenant_residency()) == ["acme", "beta", SHARED_PARTITION]
