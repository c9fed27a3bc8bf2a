"""Page-granular buffer pool fronting table and spill pages.

The seed reproduction models a memory-resident database: every scan
touches storage for free, so an entire axis of the paper's trade-off
space — shared scans amortizing *cold I/O* — is invisible. This module
adds the missing storage layer:

* :class:`BufferPool` caches page frames identified by :func:`PageKey`
  tuples. An access is a *hit* (CPU-only) or a *miss*; the caller
  charges :attr:`~repro.engine.costs.CostModel.io_page` per miss, so a
  shared scan pivot pays cold misses once for all of its consumers
  while independent execution of M queries can pay them M times.
* Eviction is pluggable: :class:`LRUPolicy` and
  :class:`ScanAwarePolicy` (LRU that switches to MRU victims for
  tables observed or hinted to be larger than the pool — the adaptive
  choice for cooperative circular scans) are the two policies a
  configuration names; :func:`make_policy` resolves one by name.
* :class:`SpillFile` is the spill channel used by memory-governed
  operators (the spilling hybrid hash join): pages written to a spill
  file live "on disk" (they survive eviction) but are also admitted to
  the pool, so a partition spilled and re-read while its frames are
  still resident costs nothing — graceful degradation rather than a
  cliff. A spill file always lives in the pool that opened it
  (:meth:`BufferPool.spill_file`). Spill traffic is counted once, in
  the pool's :class:`BufferStats` (``spill_pages_written`` /
  ``spill_pages_read``, and the read-back split of
  :class:`~repro.storage.spill_cursor.SpillCursor`); the caller
  charges :attr:`~repro.engine.costs.CostModel.spill_page` per page
  written and ``io_page`` per page that misses on read-back.

The pool's frames are a residency set: every resident frame is
evictable, and the policy names the victim.

The pool is pure bookkeeping — it never talks to the simulator. Stage
tasks translate miss/spill counts into ``Compute`` charges, keeping
all timing in one place (the operator code).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.obs.trace import TID_POOL, TID_SPILL
from repro.storage.page import Page

__all__ = [
    "PageKey",
    "table_page_key",
    "spill_page_key",
    "BufferStats",
    "EvictionPolicy",
    "LRUPolicy",
    "ScanAwarePolicy",
    "make_policy",
    "BufferPool",
    "SpillFile",
]

PageKey = Tuple[str, Any, int]


def table_page_key(table_name: str, index: int) -> PageKey:
    """The pool key of one base-table page (``page_rows`` granular)."""
    return ("tbl", table_name, index)


def spill_page_key(file_id: int, index: int) -> PageKey:
    """The pool key of one spill-file page."""
    return ("spill", file_id, index)


class BufferStats:
    """Mutable hit/miss/eviction and spill-traffic counters.

    ``spill_prefetch_issued`` / ``spill_read_stall`` /
    ``spill_read_overlapped`` / ``spill_read_abandoned`` are the
    :class:`~repro.storage.spill_cursor.SpillCursor` read-back model's
    only counters: how many spill-page reads were issued ahead of use,
    and how the resulting ``io_page`` bill split between synchronous
    stall, CPU-overlapped prefetch and prefetches evicted before use.
    With the cursors' still-in-flight cost they add up to ``io_page``
    times the ``misses`` the cursors' reads and prefetches took.
    """

    __slots__ = (
        "hits",
        "misses",
        "evictions",
        "spill_pages_written",
        "spill_pages_read",
        "spill_prefetch_issued",
        "spill_read_stall",
        "spill_read_overlapped",
        "spill_read_abandoned",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.spill_pages_written = 0
        self.spill_pages_read = 0
        self.spill_prefetch_issued = 0
        self.spill_read_stall = 0.0
        self.spill_read_overlapped = 0.0
        self.spill_read_abandoned = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"BufferStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, "
            f"spill_w={self.spill_pages_written}, "
            f"spill_r={self.spill_pages_read})"
        )


class EvictionPolicy:
    """Victim-selection strategy; subclasses keep their own ordering.

    The pool notifies the policy on admit/access/remove and asks
    :meth:`victim` for the resident key to evict when it is full.
    """

    name = "abstract"

    def on_admit(self, key: PageKey) -> None:
        raise NotImplementedError

    def on_access(self, key: PageKey) -> None:
        raise NotImplementedError

    def on_remove(self, key: PageKey) -> None:
        raise NotImplementedError

    def victim(self) -> PageKey:
        raise NotImplementedError

    def bind_capacity(self, capacity: int) -> None:
        """Told the pool's frame count at attach time. Most policies
        ignore it; adaptive policies use it to classify footprints."""

    def scan_hint(self, table_name: str, n_pages: int) -> None:
        """Advice that ``table_name`` is under a scan of ``n_pages``
        pages. Default: ignored."""


class LRUPolicy(EvictionPolicy):
    """Evict the least recently used frame."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[PageKey, None]" = OrderedDict()

    def on_admit(self, key: PageKey) -> None:
        self._order[key] = None

    def on_access(self, key: PageKey) -> None:
        self._order.move_to_end(key)

    def on_remove(self, key: PageKey) -> None:
        self._order.pop(key, None)

    def victim(self) -> PageKey:
        return next(iter(self._order))


class ScanAwarePolicy(LRUPolicy):
    """LRU that turns into MRU for tables bigger than the pool.

    The failure mode this prevents: a circular scan over a table that
    does not fit wipes the pool under LRU (every page evicted is
    exactly the one the next revolution needs first) and evicts every
    *other* table's working set along the way. The policy watches the
    per-table page footprint (and accepts explicit
    :meth:`scan_hint` advice from the scan-share manager); once a
    table's footprint exceeds the pool capacity it is classified as a
    *looping scan* and its **most** recently used page becomes the
    preferred victim — preserving the prefix of the loop for the next
    revolution and leaving unrelated tables' frames alone. Tables that
    fit keep plain LRU behavior.

    Classification triggers at footprint >= capacity: a table that
    large cannot coexist with anything else, and with observation-only
    detection the policy cannot see the true size until the scan has
    already overflowed the pool — the manager's explicit
    :meth:`scan_hint` (sent at attach time) classifies before the
    first eviction.
    """

    name = "scan"

    def __init__(self) -> None:
        super().__init__()
        self._capacity: Optional[int] = None
        self._footprint: dict[str, int] = {}
        self._looping: set[str] = set()

    def bind_capacity(self, capacity: int) -> None:
        self._capacity = capacity
        for table, pages in self._footprint.items():
            if pages >= capacity:
                self._looping.add(table)

    def scan_hint(self, table_name: str, n_pages: int) -> None:
        self._observe(table_name, n_pages)

    def is_looping(self, table_name: str) -> bool:
        """True once the table has been classified as a looping scan."""
        return table_name in self._looping

    def on_admit(self, key: PageKey) -> None:
        super().on_admit(key)
        if key[0] == "tbl":
            self._observe(key[1], key[2] + 1)

    def victim(self) -> PageKey:
        if self._looping:
            for key in reversed(self._order):
                if key[0] == "tbl" and key[1] in self._looping:
                    return key
        return super().victim()

    def _observe(self, table_name: str, n_pages: int) -> None:
        seen = self._footprint.get(table_name, 0)
        if n_pages > seen:
            self._footprint[table_name] = n_pages
            if self._capacity is not None and n_pages >= self._capacity:
                self._looping.add(table_name)


_POLICIES = {p.name: p for p in (LRUPolicy, ScanAwarePolicy)}


def make_policy(policy: str | EvictionPolicy) -> EvictionPolicy:
    """Resolve ``"lru"`` / ``"scan"`` (or pass an
    :class:`EvictionPolicy` instance through)."""
    if isinstance(policy, EvictionPolicy):
        return policy
    try:
        return _POLICIES[policy]()
    except KeyError:
        raise StorageError(
            f"unknown eviction policy {policy!r}; have {sorted(_POLICIES)}"
        ) from None


class BufferPool:
    """A fixed-capacity cache of page frames with pluggable eviction.

    Parameters
    ----------
    capacity_pages:
        Number of page frames (>= 1).
    policy:
        Eviction policy name (``"lru"``, ``"scan"``) or an
        :class:`EvictionPolicy` instance.
    """

    def __init__(self, capacity_pages: int, policy: str | EvictionPolicy = "lru") -> None:
        if capacity_pages < 1:
            raise StorageError(
                f"buffer pool capacity must be >= 1, got {capacity_pages}"
            )
        self.capacity = int(capacity_pages)
        self.policy = make_policy(policy)
        self.policy.bind_capacity(self.capacity)
        self.stats = BufferStats()
        self._resident: set[PageKey] = set()
        self._spill_counter = 0
        # Spill files opened through this pool and not yet dropped.
        self._spills: dict[int, SpillFile] = {}
        # Optional flight recorder (repro.obs.trace); ``None`` keeps
        # the access path a single identity check away from the seed.
        self.tracer = None

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, key: PageKey) -> bool:
        return key in self._resident

    def resident_pages(self, table_name: str) -> int:
        """How many of a table's pages are currently resident."""
        return sum(
            1 for key in self._resident
            if key[0] == "tbl" and key[1] == table_name
        )

    def scan_hint(self, table_name: str, n_pages: int) -> None:
        """Advise the eviction policy that a scan of ``n_pages`` pages
        is running over ``table_name`` (no-op for unaware policies)."""
        self.policy.scan_hint(table_name, n_pages)

    # -- the cache protocol ----------------------------------------------

    def access(self, key: PageKey) -> bool:
        """Touch a page: returns True on hit, False on (admitted) miss.

        A miss admits the page, evicting the policy's victim when the
        pool is full. The caller charges ``io_page`` for misses.
        """
        hit = key in self._resident
        if hit:
            self.stats.hits += 1
            self.policy.on_access(key)
        else:
            self.stats.misses += 1
            self._admit(key)
        if self.tracer is not None:
            self.tracer.instant(
                "hit" if hit else "miss", "pool", tid=TID_POOL, key=str(key)
            )
        return hit

    def _admit(self, key: PageKey) -> None:
        if len(self._resident) >= self.capacity:
            self._evict(self.policy.victim())
        self._resident.add(key)
        self.policy.on_admit(key)

    def _evict(self, victim: PageKey) -> None:
        self._resident.remove(victim)
        self.policy.on_remove(victim)
        self.stats.evictions += 1
        if self.tracer is not None:
            self.tracer.instant(
                "evict", "pool", tid=TID_POOL, key=str(victim)
            )

    def admit(self, key: PageKey) -> None:
        """Place a page in the pool without counting a hit or a miss.

        Used by prewarming and by spill writes (a write is not a read
        miss); evicts like any admission.
        """
        if key in self._resident:
            self.policy.on_access(key)
            return
        self._admit(key)

    def discard(self, key: PageKey) -> None:
        """Drop a frame without counting an eviction (file deletion)."""
        if key in self._resident:
            self._resident.remove(key)
            self.policy.on_remove(key)

    # -- conveniences ----------------------------------------------------

    def prewarm_table(self, table, page_rows: int) -> int:
        """Admit every page of a table (a warmed cache); returns count.

        Keys match the scan stage's: page ``i`` covers rows
        ``[i * page_rows, (i+1) * page_rows)``.
        """
        n_pages = -(-len(table) // page_rows)
        for index in range(n_pages):
            self.admit(table_page_key(table.name, index))
        return n_pages

    def spill_file(self, page_rows: int, owner: str = "") -> "SpillFile":
        """Open a fresh spill file writing through this pool for
        ``owner`` (the operator whose grant it spills)."""
        self._spill_counter += 1
        spill = self._spills[self._spill_counter] = SpillFile(
            self, self._spill_counter, page_rows, owner
        )
        return spill

    def live_spill_files(self) -> tuple["SpillFile", ...]:
        """The spill files opened and not yet dropped, oldest first."""
        return tuple(self._spills.values())


class SpillFile:
    """An append-only run of pages spilled by a memory-governed operator.

    Pages always survive on the simulated disk (``self._pages``); each
    written page is also admitted to ``pool`` (the pool that opened the
    file, see :meth:`BufferPool.spill_file`), so read-back of a
    recently spilled partition may hit. The file tracks its own page
    and row counts; the owning operator charges ``spill_page`` per page
    reported written and ``io_page`` per read-back miss.
    """

    def __init__(
        self, pool: BufferPool, file_id: int, page_rows: int, owner: str = ""
    ) -> None:
        if page_rows < 1:
            raise StorageError(f"page_rows must be >= 1, got {page_rows}")
        self.pool = pool
        self.file_id = file_id
        self.owner = owner
        self.page_rows = page_rows
        self._pages: list[Page] = []
        self._buffer: list[tuple] = []
        self.dropped = False

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def row_count(self) -> int:
        return sum(len(p) for p in self._pages) + len(self._buffer)

    def append_rows(self, rows: Iterable[tuple]) -> int:
        """Buffer rows; returns the number of full pages written now."""
        if self.dropped:
            raise StorageError("spill file already dropped")
        buffer = self._buffer
        buffer.extend(rows)
        page_rows = self.page_rows
        if len(buffer) < page_rows:
            return 0
        # Each full page is sliced from its offset and the written rows
        # deleted once, so a bulk append is linear in its rows.
        full = len(buffer) - len(buffer) % page_rows
        for start in range(0, full, page_rows):
            self._write_page(buffer[start : start + page_rows])
        del buffer[:full]
        return full // page_rows

    def flush(self) -> int:
        """Write out a partial trailing page, if any; returns 0 or 1."""
        if self.dropped:
            raise StorageError("spill file already dropped")
        if not self._buffer:
            return 0
        self._write_page(self._buffer)
        self._buffer = []
        return 1

    def _write_page(self, rows: Sequence[tuple]) -> None:
        index = len(self._pages)
        self._pages.append(Page(rows))
        pool = self.pool
        pool.stats.spill_pages_written += 1
        if pool.tracer is not None:
            pool.tracer.instant(
                "spill_write", "spill", tid=TID_SPILL, file=self.file_id, page=index
            )
        pool.admit(spill_page_key(self.file_id, index))

    def page_at(self, index: int) -> Page:
        """The ``index``-th written page, without any I/O accounting.

        Used by :class:`~repro.storage.spill_cursor.SpillCursor`, which
        does its own pool accesses and miss accounting per page.
        """
        if self.dropped:
            raise StorageError("spill file already dropped")
        if not 0 <= index < len(self._pages):
            raise StorageError(
                f"spill file {self.file_id} has {len(self._pages)} pages, "
                f"no page {index}"
            )
        return self._pages[index]

    def key_of(self, index: int) -> PageKey:
        """The pool key of this file's ``index``-th page."""
        return spill_page_key(self.file_id, index)

    def read_all(self) -> tuple[list[Page], int]:
        """Read every written page back; returns ``(pages, misses)``.

        Counts ``spill_pages_read`` on the pool; ``misses`` is the
        number of pages no longer resident (the caller charges
        ``io_page`` for each).
        """
        if self.dropped:
            raise StorageError("spill file already dropped")
        pool = self.pool
        misses = 0
        for index in range(len(self._pages)):
            pool.stats.spill_pages_read += 1
            if pool.tracer is not None:
                pool.tracer.instant(
                    "spill_read", "spill", tid=TID_SPILL, file=self.file_id, page=index
                )
            if not pool.access(spill_page_key(self.file_id, index)):
                misses += 1
        return list(self._pages), misses

    def drop(self) -> None:
        """Delete the file: discard its frames and release the pages."""
        if self.dropped:
            return
        for index in range(len(self._pages)):
            self.pool.discard(spill_page_key(self.file_id, index))
        self.pool._spills.pop(self.file_id, None)
        self._pages = []
        self._buffer = []
        self.dropped = True
