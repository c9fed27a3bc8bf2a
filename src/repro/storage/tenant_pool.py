"""Per-tenant buffer-pool partitions: capacity shares with hard quotas.

The open-system service tier runs many tenants' queries through *one*
engine so cross-tenant scan sharing stays possible, but a single
buffer pool then couples their working sets: one looping analyst
scanning a giant table evicts everyone else's pages (the classic noisy
neighbour). :class:`TenantPartitionedPool` is the isolation answer —
the pool's frames are divided into named partitions, each with a page
*quota*, and table ownership maps every admission to the partition
that must pay for it:

* a partition at its quota **self-evicts** (LRU within the partition)
  rather than stealing a frame from anyone else — so no tenant's
  resident footprint ever exceeds its share, no matter how hot its
  scan loop runs;
* pages of unowned tables (and spill pages, which any governed
  operator may write) land in the implicit ``__shared__`` partition
  holding whatever capacity the tenant shares left over;
* hits, misses, spill accounting and the eviction-policy protocol
  are all inherited from :class:`BufferPool` — a partitioned pool
  drops into every existing consumer (scan manager, spill files,
  metrics) unchanged.

The invariant the service tier's soak tests assert, enforced here by
construction: ``resident(tenant) <= quota(tenant)`` at every instant,
for every tenant, regardless of interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool, EvictionPolicy, LRUPolicy, PageKey

__all__ = ["TenantShare", "TenantPartitionPolicy", "TenantPartitionedPool", "SHARED_PARTITION"]

# The implicit partition owning unmapped tables and all spill pages.
SHARED_PARTITION = "__shared__"


@dataclass(frozen=True)
class TenantShare:
    """One tenant's slice of the pool: a name, a page quota, and the
    tables whose pages bill against it.

    ``pages`` is a hard ceiling on the tenant's resident footprint;
    ``tables`` lists the base tables the tenant owns (a table belongs
    to at most one tenant — validated by the pool).
    """

    name: str
    pages: int
    tables: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise StorageError("tenant share needs a non-empty name")
        if self.name == SHARED_PARTITION:
            raise StorageError(
                f"{SHARED_PARTITION!r} is the reserved shared partition name"
            )
        if self.pages < 1:
            raise StorageError(
                f"tenant {self.name!r} share must be >= 1 page, got {self.pages}"
            )


class TenantPartitionPolicy(EvictionPolicy):
    """LRU eviction kept *per partition*, with key-to-partition routing.

    The policy tracks one LRU order per partition plus the global
    residency count of each, so the pool can ask for a victim *within*
    a named partition (quota enforcement) or fall back to the most
    over-quota partition's LRU page (global pressure).
    """

    name = "tenant"

    def __init__(
        self,
        shares: Sequence[TenantShare],
        shared_quota: int,
    ) -> None:
        self._table_owner: Dict[str, str] = {}
        self.quotas: Dict[str, int] = {SHARED_PARTITION: shared_quota}
        for share in shares:
            if share.name in self.quotas:
                raise StorageError(f"duplicate tenant name {share.name!r}")
            self.quotas[share.name] = share.pages
            for table in share.tables:
                owner = self._table_owner.setdefault(table, share.name)
                if owner != share.name:
                    raise StorageError(
                        f"table {table!r} owned by both {owner!r} "
                        f"and {share.name!r}"
                    )
        self._orders: Dict[str, LRUPolicy] = {
            partition: LRUPolicy() for partition in self.quotas
        }
        self._residency: Dict[str, int] = {p: 0 for p in self.quotas}
        self._partition_of_key: Dict[PageKey, str] = {}

    # -- routing -----------------------------------------------------------

    def partition_of(self, key: PageKey) -> str:
        """The partition a page bills against: its table's owner, or
        the shared partition (spill pages and unowned tables)."""
        if key[0] == "tbl":
            return self._table_owner.get(key[1], SHARED_PARTITION)
        return SHARED_PARTITION

    def residency(self, partition: str) -> int:
        return self._residency.get(partition, 0)

    def quota(self, partition: str) -> int:
        return self.quotas.get(partition, 0)

    def partitions(self) -> Tuple[str, ...]:
        return tuple(self.quotas)

    # -- the eviction-policy protocol --------------------------------------

    def on_admit(self, key: PageKey) -> None:
        partition = self.partition_of(key)
        self._partition_of_key[key] = partition
        self._residency[partition] += 1
        self._orders[partition].on_admit(key)

    def on_access(self, key: PageKey) -> None:
        partition = self._partition_of_key.get(key)
        if partition is not None:
            self._orders[partition].on_access(key)

    def on_remove(self, key: PageKey) -> None:
        partition = self._partition_of_key.pop(key, None)
        if partition is not None:
            self._residency[partition] -= 1
            self._orders[partition].on_remove(key)

    def victim_in(self, partition: str) -> PageKey:
        """The partition's own LRU page."""
        return self._orders[partition].victim()

    def victim(self) -> PageKey:
        """Global fallback: the LRU page of the most over-quota
        partition (ties broken by partition order, deterministic)."""
        best: Optional[str] = None
        best_excess: Optional[int] = None
        for partition, resident in self._residency.items():
            if resident <= 0:
                continue
            excess = resident - self.quotas.get(partition, 0)
            if best_excess is None or excess > best_excess:
                best, best_excess = partition, excess
        if best is None:
            raise StorageError("buffer pool: no frames to evict")
        return self.victim_in(best)


class TenantPartitionedPool(BufferPool):
    """A :class:`BufferPool` whose capacity is divided among tenants.

    Parameters
    ----------
    capacity_pages:
        Total frame count, as for :class:`BufferPool`.
    shares:
        One :class:`TenantShare` per tenant. Quotas must sum to at
        most ``capacity_pages``; the remainder becomes the implicit
        ``__shared__`` partition (spill pages, unowned tables). When
        the shares consume the whole pool, anything billed to the
        shared partition is rejected at admission — configure
        headroom if governed operators will spill.

    Eviction discipline: an admission whose partition is at quota
    evicts that partition's own LRU page (never another tenant's);
    under global pressure with the admitting partition below quota,
    the most over-quota partition pays. Hence the isolation invariant:
    a tenant's resident pages never exceed its share.
    """

    def __init__(self, capacity_pages: int, shares: Sequence[TenantShare]) -> None:
        shares = tuple(shares)
        if not shares:
            raise StorageError("tenant-partitioned pool needs >= 1 share")
        total = sum(share.pages for share in shares)
        if total > capacity_pages:
            raise StorageError(
                f"tenant shares sum to {total} pages but the pool has "
                f"only {capacity_pages}"
            )
        tenant_policy = TenantPartitionPolicy(
            shares, shared_quota=capacity_pages - total
        )
        super().__init__(capacity_pages, tenant_policy)
        self.shares = shares
        self.tenant_policy = tenant_policy

    # -- introspection -----------------------------------------------------

    def tenant_residency(self) -> Dict[str, int]:
        """Resident page count per partition (shared partition last)."""
        policy = self.tenant_policy
        ordered = [p for p in policy.partitions() if p != SHARED_PARTITION]
        ordered.append(SHARED_PARTITION)
        return {p: policy.residency(p) for p in ordered}

    def quota_of(self, partition: str) -> int:
        return self.tenant_policy.quota(partition)

    def tenant_of_table(self, table_name: str) -> str:
        from repro.storage.buffer import table_page_key

        return self.tenant_policy.partition_of(table_page_key(table_name, 0))

    def check_isolation(self) -> None:
        """Raise unless every partition is within its quota — the
        invariant the service tier's soak tests lean on."""
        for partition in self.tenant_policy.partitions():
            resident = self.tenant_policy.residency(partition)
            quota = self.tenant_policy.quota(partition)
            if resident > quota:
                raise StorageError(
                    f"tenant partition {partition!r} holds {resident} "
                    f"pages over its {quota}-page share"
                )

    # -- quota-enforcing admission -----------------------------------------

    def _admit(self, key: PageKey) -> None:
        policy = self.tenant_policy
        partition = policy.partition_of(key)
        quota = policy.quota(partition)
        if quota < 1:
            raise StorageError(
                f"partition {partition!r} has no pages: give the pool "
                "headroom beyond the tenant shares (or map the table "
                "to a tenant)"
            )
        if policy.residency(partition) >= quota:
            # At quota: the partition pays for itself, always.
            self._evict(policy.victim_in(partition))
        elif len(self._resident) >= self.capacity:
            # Global pressure while under quota: the most over-quota
            # partition pays (with exact quotas this cannot happen —
            # full pool means every partition is exactly at quota).
            self._evict(policy.victim())
        self._resident.add(key)
        policy.on_admit(key)
