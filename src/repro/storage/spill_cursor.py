"""Prefetched spill read-back: stream a SpillFile like a cold scan.

Every consumer of spilled state used to call
:meth:`~repro.storage.buffer.SpillFile.read_all`, paying one
synchronous ``io_page`` per non-resident page before doing any work
with it. But a spill run is exactly the workload the sequential-disk
prefetch model of :mod:`repro.storage.shared_scan` was built for: the
pages are read front to back, once, and the CPU work per page (re-
hashing a partition, merging sorted runs, merging spilled group
state) is substantial — so read-ahead can drain the next pages'
I/O against this page's compute, just as the elevator cursors do for
table scans.

:class:`SpillCursor` is that reader. It walks one spill file's pages
in order through the owning :class:`~repro.storage.buffer.BufferPool`,
carrying a private :class:`~repro.storage.shared_scan.PrefetchFIFO`
(one spill file = one sequential stream on the simulated disk). Each
:meth:`next_page` call:

* drains the FIFO by the caller's ``cpu_credit`` — the CPU cost of
  the work done since the previous call (the overlap);
* accesses the page in the pool, classifying it as a synchronous miss
  (full ``io_page`` stall), an unfinished prefetch (stall for the
  remainder), or a hit (free);
* issues reads for the next ``prefetch_depth`` pages behind it.

The caller charges the returned stall as the ``io`` component of its
``Compute``, exactly like the elevator scan. With ``prefetch_depth=0``
the cursor degenerates to ``read_all``'s accounting: same pool
accesses in the same order, same miss count, the whole ``io_page``
bill paid as stall.

The cursor keeps no counters of its own: every read, prefetch, stall,
overlap and abandoned prefetch is counted once, on the pool's
:class:`~repro.storage.buffer.BufferStats`, so resource reports show
how much cleanup I/O was hidden behind CPU work. What is still in
flight is :meth:`SpillCursor.pending_cost`.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.obs.trace import TID_SPILL
from repro.storage.buffer import BufferPool, SpillFile
from repro.storage.shared_scan import PrefetchFIFO

__all__ = ["SpillCursor"]


class SpillCursor:
    """Sequential reader over one spill file with async read-ahead.

    Parameters
    ----------
    spill_file:
        The run to read; pages stream in write order.
    io_page:
        Cost of one cold page read (the cost model's ``io_page``).
    prefetch_depth:
        Pages of read-ahead issued past the current page (0 disables
        prefetch — every miss is a synchronous stall).
    """

    __slots__ = ("file", "pool", "io_page", "prefetch_depth", "fifo", "_next")

    def __init__(
        self,
        spill_file: SpillFile,
        io_page: float,
        prefetch_depth: int = 0,
    ) -> None:
        if io_page < 0:
            raise StorageError(f"io_page must be >= 0, got {io_page}")
        if prefetch_depth < 0:
            raise StorageError(f"prefetch_depth must be >= 0, got {prefetch_depth}")
        self.file = spill_file
        self.pool: BufferPool = spill_file.pool
        self.io_page = float(io_page)
        self.prefetch_depth = int(prefetch_depth)
        self.fifo = PrefetchFIFO()
        self._next = 0

    @property
    def exhausted(self) -> bool:
        """True once every written page has been returned."""
        return self._next >= self.file.page_count

    def pending_cost(self) -> float:
        """Prefetched read cost still in flight (issued, unconsumed)."""
        return self.fifo.pending_cost()

    def next_page(self, cpu_credit: float = 0.0):
        """Return ``(page, stall)`` for the next page of the run.

        ``cpu_credit`` is the CPU cost of the work the caller did since
        the previous call; it drains the disk FIFO (the overlap). The
        returned stall is the un-overlapped remainder of this page's
        read — the caller charges it as the ``io`` component of its
        ``Compute``.
        """
        if self.exhausted:
            raise StorageError(f"spill cursor over file {self.file.file_id} is exhausted")
        if cpu_credit < 0:
            raise StorageError(f"cpu_credit must be >= 0, got {cpu_credit}")
        index = self._next
        self._next += 1
        pool = self.pool
        stats = pool.stats
        stats.spill_read_overlapped += self.fifo.drain(cpu_credit)
        stats.spill_pages_read += 1
        resident = pool.access(self.file.key_of(index))
        stall, kind, dropped = self.fifo.settle(index, resident, self.io_page)
        stats.spill_read_stall += stall
        stats.spill_read_abandoned += dropped
        if pool.tracer is not None and kind in ("ready", "wasted"):
            pool.tracer.instant(
                "prefetch_waste" if kind == "wasted" else "prefetch_arrive",
                "spill",
                tid=TID_SPILL,
                file=self.file.file_id,
                page=index,
            )
        self._issue_prefetch(index)
        return self.file.page_at(index), stall

    def _issue_prefetch(self, index: int) -> None:
        if not self.prefetch_depth or self.io_page <= 0:
            return
        pool = self.pool
        limit = min(index + self.prefetch_depth, self.file.page_count - 1)
        for target in range(index + 1, limit + 1):
            key = self.file.key_of(target)
            if target in self.fifo or key in pool:
                continue
            # Issue the read: the frame is admitted now, its cost sits
            # in the disk FIFO until CPU credit (or a stall) pays it.
            pool.access(key)
            self.fifo.issue(target, self.io_page)
            pool.stats.spill_prefetch_issued += 1
            if pool.tracer is not None:
                pool.tracer.instant(
                    "prefetch_issue", "spill", tid=TID_SPILL, file=self.file.file_id, page=target
                )
