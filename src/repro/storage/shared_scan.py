"""Cooperative scan sharing: elevator cursors with async prefetch.

``fig_mem`` showed that identical concurrent scans through one shared
:class:`~repro.storage.buffer.BufferPool` *convoy*: the first toucher
of every page misses and the lockstep followers hit. That sharing is
implicit — it only works when the followers happen to stay page-
synchronized, and a scan arriving mid-table still starts at page 0.
This module makes the sharing explicit, in the style of QPipe's
on-the-fly scan sharing and the circular scans of commercial engines:

* :class:`ScanShareManager` runs one **elevator cursor** per hot table.
  A scan *attaches* at the cursor's current position, consumes pages in
  circular order, wraps past the end, and *completes after one full
  revolution* back to its start offset — so a late arrival rides the
  in-flight physical pass instead of forcing a second one, and only
  pays a private read for the prefix it missed (which is usually still
  resident behind the cursor).
* Each cursor carries an **async prefetch** pipeline of depth ``k``:
  while a consumer computes over page ``i``, the (simulated) disk
  fetches pages ``i+1 .. i+k``. The disk is modeled as a sequential
  device draining a FIFO of issued reads; a consumer arriving at a
  page whose read has not finished pays only the *remaining* cost
  (the stall), so prefetch converts cold-scan cost from
  ``cpu + io`` per page toward ``max(cpu, io)`` per page.
* Tables larger than the pool are registered with the pool's eviction
  policy via :meth:`~repro.storage.buffer.BufferPool.scan_hint`, so a
  scan-aware policy (:class:`~repro.storage.buffer.ScanAwarePolicy`)
  can switch those tables to MRU-style victims and keep a circular
  scan from flushing the cache.

All accounting is in cost-model units, like the rest of the storage
layer: :meth:`ScanShareManager.acquire` returns the stall cost the
scan stage charges (as the ``io`` component of a
:class:`~repro.sim.events.Compute`). The caller passes the CPU cost
of the page it just finished as ``cpu_credit``; the acquire that
advances the elevator head drains the disk FIFO by that amount —
exactly one CPU interval of overlap per physical page, however many
lockstep consumers ride the cursor. The manager never talks to the
simulator directly, keeping all timing in the operator code.

Drift governance (the "to share or not to share" regret bound)
--------------------------------------------------------------
A consumer much slower than the rest silently falls behind the head:
once its lag exceeds what the pool retains, its reads degrade to
private cold misses — the worst of both worlds (it neither shares the
physical pass nor left the convoy). With ``drift_bound`` set, each
cursor tracks per-consumer *lag* (pages behind its group's head) and
bounds it, the way DB2's grouped scans do, by one of two moves:

* **Throttle** — :meth:`ScanShareManager.throttle_wait` tells the
  consumer driving the head to pause (no new physical reads) until
  the convoy closes back up. The scan stage cooperates by sleeping
  the returned quantum and retrying; the paused time is the
  ``drift_throttle`` stall category in stage reports.
* **Group windows** — the convoy splits into two elevator groups
  (``group_windows=True``), each with its own head and disk FIFO:
  the fast riders keep their pace, the stragglers share a second,
  slower window instead of each degrading to private reads. Groups
  merge back when one laps the other or a window drains.

``group_windows="auto"`` picks between the two per violation with a
cost rule (:meth:`ScanShareManager.drift_split_gain`): pausing costs
every fast rider the lag gap, splitting costs one extra pass over
whatever the pool cannot retain — split when the first bill is
larger. ``drift_bound=None`` (the default) reproduces the historical
fall-behind behavior bit for bit.

The manager keeps storage state and reports it; it projects nothing.
What a prospective convoy *would* share — the drift-discounted attach
benefit the sharing decision prices — is
:class:`~repro.policies.resource_outlook.ResourceOutlook`'s, read from
this manager's governance settings and :meth:`ScanShareManager.table_stats`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import StorageError
from repro.obs.trace import TID_SCANS
from repro.storage.buffer import BufferPool, table_page_key

__all__ = [
    "PrefetchFIFO",
    "ScanTicket",
    "TableScanStats",
    "ScanShareManager",
]


class PrefetchFIFO:
    """The sequential-disk model shared by every prefetching reader.

    A FIFO of issued-but-incomplete reads ``[index, remaining_cost]``.
    The disk works strictly in issue order: CPU intervals passed to
    :meth:`drain` pay down the head of the queue (the overlap), and a
    consumer arriving at an unfinished read stalls for everything
    issued up to and including it (:meth:`complete_through`). Used by
    the elevator cursors of :class:`ScanShareManager` and by
    :class:`~repro.storage.spill_cursor.SpillCursor` for spill
    read-back, so table scans and spill runs share one disk model.
    """

    __slots__ = ("_pending", "_inflight")

    def __init__(self) -> None:
        self._pending: deque[list] = deque()
        self._inflight: set[int] = set()

    def __contains__(self, index: int) -> bool:
        return index in self._inflight

    def __len__(self) -> int:
        return len(self._pending)

    def clear(self) -> None:
        self._pending.clear()
        self._inflight.clear()

    def issue(self, index: int, cost: float) -> None:
        """Queue the read of ``index`` behind everything in flight."""
        self._pending.append([index, cost])
        self._inflight.add(index)

    def drain(self, cpu_credit: float) -> float:
        """The disk worked for one CPU interval: pay down the FIFO.

        Returns the amount of read cost overlapped (completed reads
        leave the in-flight set).
        """
        remaining = cpu_credit
        overlapped = 0.0
        while remaining > 0 and self._pending:
            head = self._pending[0]
            if head[1] <= remaining:
                remaining -= head[1]
                overlapped += head[1]
                self._inflight.discard(head[0])
                self._pending.popleft()
            else:
                head[1] -= remaining
                overlapped += remaining
                remaining = 0.0
        return overlapped

    def complete_through(self, index: int) -> float:
        """Finish every read issued up to and including ``index``.

        Returns the stall: the sum of the remaining costs the consumer
        must wait out before its page is ready.
        """
        stall = 0.0
        while self._pending:
            issued_index, remaining = self._pending.popleft()
            self._inflight.discard(issued_index)
            stall += remaining
            if issued_index == index:
                break
        return stall

    def drop(self, index: int) -> float:
        """Abandon the issued read of ``index`` (evicted before use).

        Returns the remaining cost the abandoned read still had, so
        callers can account the waste.
        """
        self._inflight.discard(index)
        for position, entry in enumerate(self._pending):
            if entry[0] == index:
                del self._pending[position]
                return entry[1]
        return 0.0

    def settle(self, index: int, resident: bool, io_page: float):
        """One consumer arrives at page ``index``: classify its read.

        Returns ``(stall, kind, dropped)`` where ``kind`` is

        * ``"ready"`` — resident and complete: no stall;
        * ``"inflight"`` — resident but the read has not finished: the
          sequential disk completes everything issued up to and
          including this page first (the stall);
        * ``"cold"`` — a synchronous miss nobody issued ahead of time:
          stall is the full ``io_page``;
        * ``"wasted"`` — prefetched but evicted before use: the
          read-ahead was wasted (``dropped`` is its abandoned
          in-flight cost) and a fresh synchronous read is paid.

        This is the single definition of the disk model's arrival
        rules, shared by the elevator table scans and by spill
        read-back so the two can never diverge.
        """
        if resident:
            if index in self._inflight:
                return self.complete_through(index), "inflight", 0.0
            return 0.0, "ready", 0.0
        if index in self._inflight:
            return io_page, "wasted", self.drop(index)
        return io_page, "cold", 0.0

    def pending_cost(self) -> float:
        """Read cost still in flight (unconsumed prefetch)."""
        return sum(entry[1] for entry in self._pending)


@dataclass(slots=True)
class TableScanStats:
    """Per-table share statistics.

    Each table's cursor updates one record in place;
    :meth:`ScanShareManager.table_stats` and
    :meth:`ScanShareManager.snapshot` report a copy, with ``n_pages``
    and ``groups`` read from the cursor at that moment, which later
    pages served leave unchanged.

    ``pages_served / physical_reads`` is the sharing factor: with m
    attached consumers riding one physical pass it approaches m, with
    independent scans it stays near 1. The drift block records how
    far consumers fell behind their group head (``max_lag``), the
    head-pause bill charged by throttling (``throttle_stall_cost``),
    and how often the convoy split into / merged back from group
    windows. ``io_abandoned_cost`` is in-flight read cost dropped
    before completion (evicted prefetches, retired group FIFOs); the
    conservation identity is ``io_stall + io_overlapped +
    io_abandoned + still-in-flight == physical_reads * io_page``.
    """

    table: str
    n_pages: int = 0
    attaches: int = 0
    max_attach_depth: int = 0
    pages_served: int = 0
    physical_reads: int = 0
    prefetch_issued: int = 0
    prefetch_wasted: int = 0
    io_stall_cost: float = 0.0
    io_overlapped_cost: float = 0.0
    max_lag: int = 0
    throttle_stall_cost: float = 0.0
    splits: int = 0
    merges: int = 0
    io_abandoned_cost: float = 0.0
    groups: int = 1

    @property
    def pages_per_read(self) -> float:
        """Logical pages served per physical page read."""
        if not self.physical_reads:
            return float(self.pages_served) if self.pages_served else 0.0
        return self.pages_served / self.physical_reads


class ScanTicket:
    """One consumer's ride on a table's elevator cursor.

    The ticket records where the consumer attached (``start_page``) and
    how many pages it has been served; :attr:`page_index` walks the
    table in circular order from the start offset and the ticket is
    :attr:`exhausted` after exactly one revolution — or after ``span``
    pages for a *ranged* ticket (a parallel scan fragment that reads
    only its page range but still rides the table's cursor, sharing
    residency and convoy reads with every other consumer).
    """

    __slots__ = ("table", "n_pages", "start_page", "span", "served",
                 "detached", "group", "acquired")

    def __init__(
        self,
        table: str,
        n_pages: int,
        start_page: int,
        span: Optional[int] = None,
    ) -> None:
        self.table = table
        self.n_pages = n_pages
        self.start_page = start_page
        self.span = n_pages if span is None else span
        self.served = 0
        self.detached = False
        # The elevator group this ticket rides (set by attach, moved
        # by group-window splits/merges). Managed by ScanShareManager.
        self.group: "_Group" | None = None
        # True between acquire() and advance(): the consumer holds
        # page_index but has not finished computing over it. Drift
        # accounting measures such a consumer at its *next* page —
        # a group-window split that seeded its head from an already-
        # acquired index would point at a page nobody requests again.
        self.acquired = False

    @property
    def page_index(self) -> int:
        """Physical index of the next page this consumer reads."""
        return (self.start_page + self.served) % self.n_pages

    @property
    def next_page(self) -> int:
        """Physical index of the next page this consumer will
        *request*: ``page_index``, plus one while the current page is
        acquired but not yet advanced past."""
        return (self.start_page + self.served
                + (1 if self.acquired else 0)) % self.n_pages

    @property
    def exhausted(self) -> bool:
        """True once the consumer has seen every page of its span."""
        return self.served >= self.span

    def advance(self) -> None:
        if self.exhausted:
            raise StorageError(
                f"scan ticket for {self.table!r} already completed "
                "its revolution"
            )
        self.served += 1
        self.acquired = False

    def __repr__(self) -> str:
        return (
            f"ScanTicket({self.table!r}, start={self.start_page}, "
            f"{self.served}/{self.span})"
        )


class _Group:
    """One elevator window: a head, its own disk FIFO, its riders.

    A cursor normally has exactly one group. A drift-bound violation
    under ``group_windows`` splits the convoy into two; groups merge
    back when their heads meet or a window drains.
    """

    __slots__ = ("head", "fifo", "tickets", "advanced")

    def __init__(self, head: int = 0, advanced: int = 0) -> None:
        self.head = head         # next physical page this window reads
        self.fifo = PrefetchFIFO()  # this window's sequential disk
        self.tickets: list[ScanTicket] = []
        # Monotone count of head advances: the circular heads cannot
        # be compared directly, so inter-window gaps are measured on
        # this counter (a split seeds the new window with the lead's
        # count minus its head lag).
        self.advanced = advanced

    def active_tickets(self) -> list[ScanTicket]:
        return [
            t for t in self.tickets if not (t.exhausted or t.detached)
        ]

    def lag_of(self, ticket: ScanTicket, n_pages: int) -> int:
        """Pages this consumer is behind the group head (0 = at it).

        Measured at the consumer's *next requested* page, so one
        mid-compute on the head page counts as caught up.
        """
        return (self.head - ticket.next_page) % n_pages

    def max_lag(self, n_pages: int) -> int:
        # Ranged tickets (parallel scan fragments pinned to a page
        # range) are not convoy stragglers: their distance from the
        # head is fixed by their range, not by their speed, so they
        # are excluded — counting them would throttle the head for
        # the fragment's whole lifetime.
        lags = [
            self.lag_of(t, n_pages)
            for t in self.active_tickets()
            if t.span >= n_pages
        ]
        return max(lags, default=0)


class _Cursor:
    """Elevator state for one table: its group windows and stats."""

    __slots__ = ("table", "n_pages", "groups", "stats")

    def __init__(self, table: str, n_pages: int) -> None:
        self.table = table
        self.n_pages = n_pages
        self.groups: list[_Group] = [_Group()]
        self.stats = TableScanStats(table)

    @property
    def tickets(self) -> list[ScanTicket]:
        return [t for g in self.groups for t in g.tickets]

    def pending_cost(self) -> float:
        """Unconsumed in-flight read cost across all group FIFOs."""
        return sum(g.fifo.pending_cost() for g in self.groups)

    def report(self) -> TableScanStats:
        """A copy of the stats, with the cursor's geometry filled in."""
        return replace(self.stats, n_pages=self.n_pages, groups=len(self.groups))


class ScanShareManager:
    """Coordinates cooperative (elevator) scans over one buffer pool.

    Parameters
    ----------
    pool:
        The buffer pool all cooperative scans read through.
    prefetch_depth:
        Pages of read-ahead issued past the elevator head (0 disables
        prefetch — every miss is a synchronous ``io_page`` stall).
    drift_bound:
        Maximum pages any consumer may lag behind its group's head
        before the manager intervenes (``None`` — the default — keeps
        the historical unbounded fall-behind behavior). Enforcement
        is cooperative: the scan stage asks :meth:`throttle_wait`
        before driving the head, so raw :meth:`acquire` callers see
        the bound as advisory (lag is still tracked and splits still
        happen under ``group_windows``).
    group_windows:
        What a drift violation does. ``False`` (default): throttle —
        pause the head until the convoy closes up. ``True``: split
        the convoy into two elevator groups (fast riders keep their
        pace, stragglers share a second window). ``"auto"``: choose
        per violation by :meth:`drift_split_gain`'s cost rule.
    """

    _MAX_GROUPS = 2
    _WINDOW_MODES = (False, True, "auto")

    def __init__(
        self,
        pool: BufferPool,
        prefetch_depth: int = 0,
        drift_bound: int | None = None,
        group_windows: bool | str = False,
    ) -> None:
        if prefetch_depth < 0:
            raise StorageError(
                f"prefetch_depth must be >= 0, got {prefetch_depth}"
            )
        if drift_bound is not None and drift_bound < 1:
            raise StorageError(
                f"drift_bound must be >= 1 page, got {drift_bound}"
            )
        if group_windows not in self._WINDOW_MODES:
            raise StorageError(
                f"group_windows must be one of {self._WINDOW_MODES}, "
                f"got {group_windows!r}"
            )
        if group_windows and drift_bound is None:
            raise StorageError(
                "group_windows needs a drift_bound: windows open when "
                "a consumer's lag crosses the bound"
            )
        self.pool = pool
        self.prefetch_depth = int(prefetch_depth)
        self.drift_bound = drift_bound
        self.group_windows = group_windows
        self._cursors: dict[str, _Cursor] = {}
        # Optional flight recorder (repro.obs.trace); every elevator
        # lifecycle edge below guards on one identity check.
        self.tracer = None

    # -- consumer lifecycle ----------------------------------------------

    def attach(
        self,
        table: str,
        n_pages: int,
        start: Optional[int] = None,
        span: Optional[int] = None,
    ) -> ScanTicket:
        """Join the table's elevator at its current position.

        The first consumer starts a cursor at page 0; later arrivals
        start at the head — the page the in-flight pass is about to
        read — and wrap around.

        ``start`` / ``span`` attach a *ranged* ticket: a parallel scan
        fragment reading ``span`` pages from a fixed ``start`` offset
        (not the head). Ranged tickets ride the same cursor as every
        full-revolution consumer — they share pool residency and any
        in-flight convoy reads, and they count in the cursor's sharing
        statistics — but they do not begin at the head, so they pay
        their own cold reads where their range has not been warmed.
        """
        if n_pages < 1:
            raise StorageError(f"n_pages must be >= 1, got {n_pages}")
        if start is not None and not 0 <= start < n_pages:
            raise StorageError(
                f"start must be in [0, {n_pages}), got {start}"
            )
        if span is not None and not 1 <= span <= n_pages:
            raise StorageError(
                f"span must be in [1, {n_pages}], got {span}"
            )
        cursor = self._cursors.get(table)
        if cursor is None:
            cursor = _Cursor(table, n_pages)
            self._cursors[table] = cursor
        elif cursor.n_pages != n_pages:
            if cursor.tickets:
                raise StorageError(
                    f"table {table!r} changed size mid-scan: cursor has "
                    f"{cursor.n_pages} pages, attach requests {n_pages}"
                )
            # Idle cursor over a table that grew (or shrank) between
            # queries: re-size its geometry, keep its lifetime stats
            # (abandoning still-in-flight reads keeps the conservation
            # identity honest across the reset).
            cursor.n_pages = n_pages
            cursor.stats.io_abandoned_cost += cursor.pending_cost()
            cursor.groups = [_Group()]
        lead = cursor.groups[0]
        start_page = lead.head % n_pages if start is None else start
        ticket = ScanTicket(table, n_pages, start_page, span=span)
        ticket.group = lead
        lead.tickets.append(ticket)
        stats = cursor.stats
        stats.attaches += 1
        stats.max_attach_depth = max(stats.max_attach_depth, len(cursor.tickets))
        if self.tracer is not None:
            self.tracer.instant(
                "attach", "scan", tid=TID_SCANS,
                table=table, start=ticket.start_page,
                depth=len(cursor.tickets),
            )
        if n_pages > self.pool.capacity:
            self.pool.scan_hint(table, n_pages)
        return ticket

    def detach(self, ticket: ScanTicket) -> None:
        """Remove a finished (or abandoned) consumer from its cursor.

        Detaching a straggler mid-drift unblocks a throttled head on
        the spot (its lag no longer counts), and draining a group
        window retires the window — the abandoned in-flight read cost
        is recorded in ``io_abandoned_cost``.
        """
        if ticket.detached:
            return
        ticket.detached = True
        if self.tracer is not None:
            self.tracer.instant(
                "detach", "scan", tid=TID_SCANS,
                table=ticket.table, served=ticket.served,
            )
        cursor = self._cursors.get(ticket.table)
        if cursor is None:
            return
        group = ticket.group
        if group is None:
            return
        try:
            group.tickets.remove(ticket)
        except ValueError:
            pass
        if not group.tickets and len(cursor.groups) > 1:
            self._retire_group(cursor, group)

    # -- the per-page protocol -------------------------------------------

    def acquire(
        self, ticket: ScanTicket, io_page: float, cpu_credit: float = 0.0
    ) -> float:
        """Obtain the ticket's next page; returns the I/O stall cost.

        ``cpu_credit`` is the CPU cost of the page the consumer just
        finished. When this acquire advances the elevator head — one
        consumer does, once per physical page, whichever of the
        lockstep riders gets there first — the credit drains the disk
        FIFO: that is the interval the disk spent fetching ahead while
        the pipeline computed. The returned stall is what remains of
        this page's read (the full ``io_page`` on an unprefetched
        miss, zero on a finished prefetch); the caller charges it as
        the ``io`` component of its ``Compute``. If this consumer is
        at the head, the next ``prefetch_depth`` pages' reads are also
        issued here.
        """
        if ticket.exhausted or ticket.detached:
            raise StorageError(f"{ticket!r} is not active")
        if cpu_credit < 0:
            raise StorageError(f"cpu_credit must be >= 0, got {cpu_credit}")
        cursor = self._cursor_of(ticket)
        stats = cursor.stats
        group = ticket.group
        index = ticket.page_index
        stats.pages_served += 1
        at_head = index == group.head
        if at_head:
            stats.io_overlapped_cost += group.fifo.drain(cpu_credit)
        resident = self.pool.access(table_page_key(ticket.table, index))

        stall, kind, dropped = group.fifo.settle(index, resident, io_page)
        if kind in ("cold", "wasted"):
            stats.physical_reads += 1
        if kind == "wasted":
            stats.prefetch_wasted += 1
        if self.tracer is not None:
            if kind == "wasted":
                self.tracer.instant(
                    "prefetch_waste", "scan", tid=TID_SCANS,
                    table=ticket.table, page=index,
                )
            elif kind == "ready":
                self.tracer.instant(
                    "prefetch_arrive", "scan", tid=TID_SCANS,
                    table=ticket.table, page=index,
                )
        stats.io_stall_cost += stall
        stats.io_abandoned_cost += dropped
        ticket.acquired = True

        # Elevator-head bookkeeping, drift tracking, and read-ahead.
        if at_head:
            group.head = (index + 1) % cursor.n_pages
            group.advanced += 1
            self._note_drift(cursor, group, io_page)
            self._issue_prefetch(cursor, group, index, io_page)
            self._maybe_merge(cursor, group)
        return stall

    def throttle_wait(self, ticket: ScanTicket, io_page: float) -> float:
        """Ask permission to drive the head; 0.0 means go ahead.

        The per-consumer pacing hook: a scan stage calls this before
        each :meth:`acquire`. A positive return means the consumer is
        driving a head, a drift bound is violated, and the chosen
        response is to *pause physical reads* — the caller should
        wait that long (off-processor) and retry; the quantum is one
        ``io_page`` (the disk's natural tick) and is accounted as
        ``throttle_stall_cost``. Two bounds are enforced:

        * *intra-group*: some rider of this consumer's own group lags
          ``drift_bound`` or more behind its head (answered by a
          group-window split instead when the mode and cost rule say
          so — then this returns 0.0 and the next acquire splits);
        * *inter-group*: this group leads a trailing group window by
          :meth:`window_span` pages or more. Without this coupling a
          free-running lead would evict the whole table behind it and
          hand the trailing window a full second physical pass — the
          bounded span is what keeps group windows cheaper than
          private re-reads, the way DB2's grouped scans stay within
          one buffer window.

        Returns 0.0 when neither bound is violated, the consumer is
        not driving a head, or drift governance is off
        (``drift_bound=None``, or a free ``io_page`` makes private
        re-reads costless).
        """
        if self.drift_bound is None or io_page <= 0:
            return 0.0
        if ticket.exhausted or ticket.detached:
            return 0.0
        cursor = self._cursors.get(ticket.table)
        group = ticket.group
        if cursor is None or group is None:
            return 0.0
        if ticket.page_index != group.head:
            return 0.0
        span = self.window_span(cursor.n_pages)
        outruns = any(
            group.advanced - other.advanced >= span
            for other in cursor.groups
            if other is not group and other.active_tickets()
        )
        if not outruns:
            if group.max_lag(cursor.n_pages) < self.drift_bound:
                return 0.0
            if self._wants_split(cursor, group, io_page):
                return 0.0  # the next acquire opens a window instead
        cursor.stats.throttle_stall_cost += io_page
        if self.tracer is not None:
            self.tracer.instant(
                "throttle", "scan", tid=TID_SCANS,
                table=ticket.table, wait=io_page,
            )
        return io_page

    def window_span(self, n_pages: int) -> int:
        """Maximum lead (in head advances) one group window may hold
        over another: as much of the pool as read-ahead leaves free —
        clamped to the table (one revolution is the largest
        meaningful lead) — but never less than the drift bound. A
        span beyond the pool's reach would let the lead evict the
        trailing window's future pages and re-bill them as a private
        pass."""
        span = min(self.pool.capacity - self.prefetch_depth - 2,
                   n_pages - 1)
        bound = self.drift_bound if self.drift_bound is not None else 1
        return max(bound, span, 1)

    def drift_split_gain(self, table: str, io_page: float) -> float:
        """The split-vs-throttle cost rule, in cost-model units.

        Throttling the lead group's head bills every fast rider the
        lag gap (each idles ~``max_lag`` page-ticks of ``io_page``);
        splitting bills one extra pass over whatever the pool cannot
        retain (``n_pages - capacity`` cold re-reads, 0 for tables
        the pool covers). Positive gain → split, else throttle.
        ``group_windows="auto"`` applies this rule per violation.
        """
        cursor = self._cursors.get(table)
        if cursor is None:
            return 0.0
        group = cursor.groups[0]
        lag = group.max_lag(cursor.n_pages)
        fast = sum(
            1 for t in group.active_tickets()
            if group.lag_of(t, cursor.n_pages) < lag
        )
        throttle_cost = fast * lag * io_page
        replay = max(0, cursor.n_pages - self.pool.capacity)
        return throttle_cost - replay * io_page

    # -- reports ---------------------------------------------------------

    def table_stats(self, table: str) -> Optional[TableScanStats]:
        """One table's share statistics (``None`` before its first
        attach)."""
        cursor = self._cursors.get(table)
        return None if cursor is None else cursor.report()

    def snapshot(self) -> tuple[TableScanStats, ...]:
        """Every table's :meth:`table_stats`, by table name."""
        return tuple(cursor.report() for _, cursor in sorted(self._cursors.items()))

    def attached(self) -> list[ScanTicket]:
        """Every ticket attached and not yet detached, by table."""
        return [t for _, cursor in sorted(self._cursors.items()) for t in cursor.tickets]

    # -- internals ---------------------------------------------------------

    def _cursor_of(self, ticket: ScanTicket) -> _Cursor:
        try:
            return self._cursors[ticket.table]
        except KeyError:
            raise StorageError(
                f"no cursor for table {ticket.table!r}"
            ) from None

    def _issue_prefetch(
        self, cursor: _Cursor, group: _Group, index: int, io_page: float
    ) -> None:
        if not self.prefetch_depth or io_page <= 0:
            return
        stats = cursor.stats
        for step in range(1, self.prefetch_depth + 1):
            target = (index + step) % cursor.n_pages
            key = table_page_key(cursor.table, target)
            if target in group.fifo or key in self.pool:
                continue
            # Issue the read: the frame is admitted now (so followers
            # see it), its cost sits in the disk FIFO until overlapped
            # CPU work or an acquire-stall pays it down.
            self.pool.access(key)
            group.fifo.issue(target, io_page)
            stats.physical_reads += 1
            stats.prefetch_issued += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "prefetch_issue", "scan", tid=TID_SCANS,
                    table=cursor.table, page=target,
                )

    # -- drift governance --------------------------------------------------

    def _note_drift(
        self, cursor: _Cursor, group: _Group, io_page: float
    ) -> None:
        """Track lag after a head advance; open a window on violation."""
        lag = group.max_lag(cursor.n_pages)
        if lag > cursor.stats.max_lag:
            cursor.stats.max_lag = lag
        if (self.drift_bound is None or lag < self.drift_bound
                or not self._wants_split(cursor, group, io_page)):
            return
        self._split(cursor, group)

    def _wants_split(
        self, cursor: _Cursor, group: _Group, io_page: float
    ) -> bool:
        """Would this group answer a drift violation with a split?"""
        if not self.group_windows or len(cursor.groups) >= self._MAX_GROUPS:
            return False
        if self._split_point(cursor, group) is None:
            return False
        if self.group_windows == "auto":
            return self.drift_split_gain(cursor.table, io_page) > 0
        return True

    def _split_point(
        self, cursor: _Cursor, group: _Group
    ) -> int | None:
        """Lag threshold separating the convoy's two natural clusters.

        Sorts the riders by lag and cuts at the largest gap between
        consecutive lags — the grouped-scan clustering rule. Returns
        the smallest lag of the slow cluster, or ``None`` when the
        convoy has no gap to cut at (fewer than two distinct lags).
        """
        # Ranged fragments sit at range-fixed offsets, not speed-derived
        # lags; they stay in the lead group and never seed a window.
        lags = sorted(
            group.lag_of(t, cursor.n_pages)
            for t in group.active_tickets()
            if t.span >= cursor.n_pages
        )
        if len(lags) < 2 or lags[0] == lags[-1]:
            return None
        best_gap, threshold = 0, None
        for faster, slower in zip(lags, lags[1:]):
            if slower - faster > best_gap:
                best_gap, threshold = slower - faster, slower
        return threshold

    def _split(self, cursor: _Cursor, group: _Group) -> None:
        """Open a group window: move the slow cluster to its own
        elevator, headed at its least-lagging member's next page."""
        threshold = self._split_point(cursor, group)
        if threshold is None:
            return
        slow = [
            t for t in group.active_tickets()
            if t.span >= cursor.n_pages
            and group.lag_of(t, cursor.n_pages) >= threshold
        ]
        slow_head = min(
            (t for t in slow),
            key=lambda t: group.lag_of(t, cursor.n_pages),
        ).next_page
        head_lag = (group.head - slow_head) % cursor.n_pages
        window = _Group(head=slow_head,
                        advanced=group.advanced - head_lag)
        for ticket in slow:
            group.tickets.remove(ticket)
            ticket.group = window
            window.tickets.append(ticket)
        cursor.groups.append(window)
        cursor.stats.splits += 1
        if self.tracer is not None:
            self.tracer.instant(
                "split", "scan", tid=TID_SCANS,
                table=cursor.table, head=slow_head,
                riders=len(window.tickets),
            )

    def _maybe_merge(self, cursor: _Cursor, group: _Group) -> None:
        """Merge group windows whose heads meet (one lapped the other)."""
        for other in list(cursor.groups):
            if other is group or other.head != group.head:
                continue
            for ticket in other.tickets:
                ticket.group = group
                group.tickets.append(ticket)
            other.tickets = []
            self._retire_group(cursor, other)

    def _retire_group(self, cursor: _Cursor, group: _Group) -> None:
        """Drop an empty group window, abandoning its in-flight reads."""
        cursor.stats.io_abandoned_cost += group.fifo.pending_cost()
        group.fifo.clear()
        cursor.groups.remove(group)
        cursor.stats.merges += 1
        if self.tracer is not None:
            self.tracer.instant(
                "merge", "scan", tid=TID_SCANS, table=cursor.table
            )
