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
* Frames can be *pinned* — pinned frames are never evicted (operators
  pin pages they are actively mutating).
* Eviction is pluggable: :class:`LRUPolicy`, :class:`ClockPolicy`
  (second chance), :class:`MRUPolicy` (optimal for looping scans
  larger than the pool) and :class:`ScanAwarePolicy` (LRU that
  switches to MRU victims for tables observed or hinted to be larger
  than the pool — the adaptive choice for cooperative circular scans)
  are provided; :func:`make_policy` resolves a policy by name.
* :class:`SpillFile` is the spill channel used by memory-governed
  operators (the spilling hybrid hash join): pages written to a spill
  file live "on disk" (they survive eviction) but are also admitted to
  the pool, so a partition spilled and re-read while its frames are
  still resident costs nothing — graceful degradation rather than a
  cliff. Spill traffic is counted in :class:`BufferStats`
  (``spill_pages_written`` / ``spill_pages_read``); the caller charges
  :attr:`~repro.engine.costs.CostModel.spill_page` per page written
  and ``io_page`` per page that misses on read-back.

The pool is pure bookkeeping — it never talks to the simulator. Stage
tasks translate miss/spill counts into ``Compute`` charges, keeping
all timing in one place (the operator code).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

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
    "MRUPolicy",
    "ClockPolicy",
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
    ``spill_read_overlapped`` aggregate the
    :class:`~repro.storage.spill_cursor.SpillCursor` read-back model:
    how many spill-page reads were issued ahead of use, and how the
    resulting ``io_page`` bill split between synchronous stall and
    CPU-overlapped prefetch.
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
    :meth:`victim` for an unpinned key to evict. ``is_pinned`` is a
    predicate supplied by the pool; a policy must never name a pinned
    frame as the victim.
    """

    name = "abstract"

    def on_admit(self, key: PageKey) -> None:
        raise NotImplementedError

    def on_access(self, key: PageKey) -> None:
        raise NotImplementedError

    def on_remove(self, key: PageKey) -> None:
        raise NotImplementedError

    def victim(self, is_pinned: Callable[[PageKey], bool]) -> PageKey:
        raise NotImplementedError

    def bind_capacity(self, capacity: int) -> None:
        """Told the pool's frame count at attach time. Most policies
        ignore it; adaptive policies use it to classify footprints."""

    def scan_hint(self, table_name: str, n_pages: int) -> None:
        """Advice that ``table_name`` is under a scan of ``n_pages``
        pages. Default: ignored."""


class LRUPolicy(EvictionPolicy):
    """Evict the least recently used unpinned frame."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[PageKey, None]" = OrderedDict()

    def on_admit(self, key: PageKey) -> None:
        self._order[key] = None

    def on_access(self, key: PageKey) -> None:
        self._order.move_to_end(key)

    def on_remove(self, key: PageKey) -> None:
        self._order.pop(key, None)

    def victim(self, is_pinned: Callable[[PageKey], bool]) -> PageKey:
        for key in self._order:
            if not is_pinned(key):
                return key
        raise StorageError("buffer pool: every frame is pinned")


class MRUPolicy(LRUPolicy):
    """Evict the *most* recently used unpinned frame.

    MRU is the classic answer to looping scans over data slightly
    larger than the pool: LRU evicts exactly the page the next loop
    iteration needs, while MRU preserves the prefix of the loop.
    """

    name = "mru"

    def victim(self, is_pinned: Callable[[PageKey], bool]) -> PageKey:
        for key in reversed(self._order):
            if not is_pinned(key):
                return key
        raise StorageError("buffer pool: every frame is pinned")


class ClockPolicy(EvictionPolicy):
    """Second-chance eviction with a clock hand over the frames."""

    name = "clock"

    def __init__(self) -> None:
        self._keys: list[PageKey] = []
        self._ref: dict[PageKey, bool] = {}
        self._hand = 0

    def on_admit(self, key: PageKey) -> None:
        self._keys.append(key)
        self._ref[key] = True

    def on_access(self, key: PageKey) -> None:
        self._ref[key] = True

    def on_remove(self, key: PageKey) -> None:
        if key in self._ref:
            index = self._keys.index(key)
            del self._keys[index]
            del self._ref[key]
            if index < self._hand:
                self._hand -= 1
            if self._keys:
                self._hand %= len(self._keys)
            else:
                self._hand = 0

    def victim(self, is_pinned: Callable[[PageKey], bool]) -> PageKey:
        if not self._keys:
            raise StorageError("buffer pool: no frames to evict")
        # Two sweeps clear every reference bit; a third finds a victim
        # unless every frame is pinned.
        for _ in range(3 * len(self._keys)):
            key = self._keys[self._hand]
            self._hand = (self._hand + 1) % len(self._keys)
            if is_pinned(key):
                continue
            if self._ref[key]:
                self._ref[key] = False
                continue
            return key
        raise StorageError("buffer pool: every frame is pinned")


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

    def victim(self, is_pinned: Callable[[PageKey], bool]) -> PageKey:
        if self._looping:
            for key in reversed(self._order):
                if (key[0] == "tbl" and key[1] in self._looping
                        and not is_pinned(key)):
                    return key
        return super().victim(is_pinned)

    def _observe(self, table_name: str, n_pages: int) -> None:
        seen = self._footprint.get(table_name, 0)
        if n_pages > seen:
            self._footprint[table_name] = n_pages
            if self._capacity is not None and n_pages >= self._capacity:
                self._looping.add(table_name)


_POLICIES = {
    p.name: p for p in (LRUPolicy, MRUPolicy, ClockPolicy, ScanAwarePolicy)
}


def make_policy(policy: str | EvictionPolicy) -> EvictionPolicy:
    """Resolve ``"lru"`` / ``"clock"`` / ``"mru"`` / ``"scan"`` (or
    pass an :class:`EvictionPolicy` instance through)."""
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
        Eviction policy name (``"lru"``, ``"clock"``, ``"mru"``) or an
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
        self._pins: dict[PageKey, int] = {}  # key -> pin count (0 = unpinned)
        self._spill_counter = 0
        # Optional flight recorder (repro.obs.trace); ``None`` keeps
        # the access path a single identity check away from the seed.
        self.tracer = None

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._pins)

    def __contains__(self, key: PageKey) -> bool:
        return key in self._pins

    def pinned_count(self) -> int:
        return sum(1 for count in self._pins.values() if count)

    def resident_pages(self, table_name: str) -> int:
        """How many of a table's pages are currently resident."""
        return sum(
            1 for key in self._pins
            if key[0] == "tbl" and key[1] == table_name
        )

    def scan_hint(self, table_name: str, n_pages: int) -> None:
        """Advise the eviction policy that a scan of ``n_pages`` pages
        is running over ``table_name`` (no-op for unaware policies)."""
        self.policy.scan_hint(table_name, n_pages)

    def is_pinned(self, key: PageKey) -> bool:
        return self._pins.get(key, 0) > 0

    # -- the cache protocol ----------------------------------------------

    def access(self, key: PageKey, pin: bool = False) -> bool:
        """Touch a page: returns True on hit, False on (admitted) miss.

        A miss admits the page, evicting an unpinned victim when the
        pool is full. The caller charges ``io_page`` for misses.
        """
        hit = key in self._pins
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
        if pin:
            self._pins[key] += 1
        return hit

    def _admit(self, key: PageKey) -> None:
        if len(self._pins) >= self.capacity:
            self._evict(self.policy.victim(self.is_pinned))
        self._pins[key] = 0
        self.policy.on_admit(key)

    def _evict(self, victim: PageKey) -> None:
        del self._pins[victim]
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
        if key in self._pins:
            self.policy.on_access(key)
            return
        self._admit(key)

    def pin(self, key: PageKey) -> None:
        """Pin a resident page; pinned pages are never evicted."""
        if key not in self._pins:
            raise StorageError(f"cannot pin non-resident page {key!r}")
        self._pins[key] += 1

    def unpin(self, key: PageKey) -> None:
        count = self._pins.get(key)
        if not count:
            raise StorageError(f"cannot unpin {key!r}: not pinned")
        self._pins[key] = count - 1

    def discard(self, key: PageKey) -> None:
        """Drop a frame without counting an eviction (file deletion)."""
        if key in self._pins:
            del self._pins[key]
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

    def spill_file(self, page_rows: int) -> "SpillFile":
        """Open a fresh spill file writing through this pool."""
        self._spill_counter += 1
        return SpillFile(self, self._spill_counter, page_rows)


class SpillFile:
    """An append-only run of pages spilled by a memory-governed operator.

    Pages always survive on the simulated disk (``self._pages``); each
    written page is also admitted to the buffer pool, so read-back of a
    recently spilled partition may hit. The file tracks its own page
    and row counts; the owning operator charges ``spill_page`` per page
    reported written and ``io_page`` per read-back miss.
    """

    def __init__(self, pool: Optional[BufferPool], file_id: int, page_rows: int) -> None:
        if page_rows < 1:
            raise StorageError(f"page_rows must be >= 1, got {page_rows}")
        self.pool = pool
        self.file_id = file_id
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
        written = 0
        self._buffer.extend(rows)
        while len(self._buffer) >= self.page_rows:
            self._write_page(self._buffer[: self.page_rows])
            del self._buffer[: self.page_rows]
            written += 1
        return written

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
        if self.pool is not None:
            self.pool.stats.spill_pages_written += 1
            if self.pool.tracer is not None:
                self.pool.tracer.instant(
                    "spill_write", "spill", tid=TID_SPILL,
                    file=self.file_id, page=index,
                )
            self.pool.admit(spill_page_key(self.file_id, index))

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
        misses = 0
        for index in range(len(self._pages)):
            if self.pool is not None:
                self.pool.stats.spill_pages_read += 1
                if self.pool.tracer is not None:
                    self.pool.tracer.instant(
                        "spill_read", "spill", tid=TID_SPILL,
                        file=self.file_id, page=index,
                    )
                if not self.pool.access(spill_page_key(self.file_id, index)):
                    misses += 1
            else:
                misses += 1
        return list(self._pages), misses

    def drop(self) -> None:
        """Delete the file: discard its frames and release the pages."""
        if self.dropped:
            return
        if self.pool is not None:
            for index in range(len(self._pages)):
                self.pool.discard(spill_page_key(self.file_id, index))
        self._pages = []
        self._buffer = []
        self.dropped = True
