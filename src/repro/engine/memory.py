"""Working-memory governance for engine operators.

Real engines bound the memory a query operator may hold (PostgreSQL's
``work_mem``, SQL Server's memory grants); operators that exceed their
grant spill to disk instead of failing. The seed engine had no such
bound — a hash join buffered its whole build side unconditionally —
so memory pressure, the force that makes work sharing attractive when
it shrinks the aggregate working set, was invisible.

:class:`MemoryBroker` is the engine-wide arbiter: it owns a global
``work_mem`` budget (in pages) and hands out :class:`MemoryGrant`
budgets to operators. Grants are *budgets*, not reservations of real
memory: an operator reports its actual page usage through
:meth:`MemoryGrant.resize_used`, the broker tracks the aggregate
high-water mark, and usage beyond the granted budget is recorded as an
overcommit (the spilling hash join only overcommits at its recursion
floor, where splitting further cannot help). The broker never raises
on pressure — degradation is the operators' job (spill), accounting is
the broker's.

Units are *pages* (the engine's ``page_rows``-tuple exchange unit), so
budgets compose directly with :class:`~repro.storage.buffer.BufferPool`
capacities and spill-file page counts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import EngineError
from repro.obs.trace import TID_MEMORY

__all__ = ["MemoryBroker", "MemoryGrant", "GrantSnapshot", "UNBOUNDED", "grant_notes"]


@dataclass(frozen=True)
class GrantSnapshot:
    """Immutable view of one grant, for reports.

    ``notes`` carries operator-reported facts about how the grant was
    spent — the external sort reports ``sort_runs`` / ``merge_passes``
    / ``spilled_pages``, so a result can show not just *that* an
    operator stayed in budget but *how*. ``requested`` is the pages the
    operator asked for (``work_mem`` when it named no size): a grant
    whose ``pages`` fall short of it was starved by the siblings that
    opened first.
    """

    owner: str
    pages: int
    used: int
    high_water: int
    closed: bool
    notes: tuple = ()
    requested: Optional[int] = None


def grant_notes(grants: Sequence[GrantSnapshot], owner: str) -> dict:
    """Operator-reported facts for one grant owner (e.g. the external
    sort's ``sort_runs`` / ``merge_passes``) — of the newest grant with
    that owner, when a plan ran more than once."""
    for grant in reversed(grants):
        if grant.owner == owner:
            return dict(grant.notes)
    raise KeyError(owner)


class MemoryGrant:
    """One operator's working-memory budget.

    ``pages`` is the granted budget and ``requested`` what the operator
    asked for; ``used`` is what the operator currently reports holding.
    Usage above the budget is allowed (the recursion floor of a
    spilling operator) but counted as an overcommit on the broker.

    The grant also owns the runs spilled under it: :meth:`spill_file`
    opens each in the broker's pool, and :meth:`close` drops any the
    operator has not — so a stage that fails mid-spill leaves no file
    behind. The grant keeps only file ids, never a dropped file.
    """

    __slots__ = (
        "broker",
        "owner",
        "pages",
        "requested",
        "used",
        "high_water",
        "closed",
        "notes",
        "_overcommitted",
        "_spill_ids",
    )

    def __init__(self, broker: "MemoryBroker", owner: str, pages: int, requested: int) -> None:
        self.broker = broker
        self.owner = owner
        self.pages = pages
        self.requested = requested
        self.used = 0
        self.high_water = 0
        self.closed = False
        self.notes: dict = {}
        self._overcommitted = False
        self._spill_ids: set[int] = set()

    def resize_used(self, used_pages: int) -> None:
        """Report the operator's current resident page count."""
        if self.closed:
            raise EngineError(f"grant for {self.owner!r} already closed")
        if used_pages < 0:
            raise EngineError(f"used pages must be >= 0, got {used_pages}")
        delta = used_pages - self.used
        self.used = used_pages
        self.high_water = max(self.high_water, used_pages)
        self.broker._adjust(delta)
        if used_pages > self.pages and not self._overcommitted:
            self._overcommitted = True
            self.broker.overcommits += 1
            if self.broker.tracer is not None:
                self.broker.tracer.instant(
                    "overcommit",
                    "mem",
                    tid=TID_MEMORY,
                    owner=self.owner,
                    used=used_pages,
                    budget=self.pages,
                )

    def note(self, **facts) -> None:
        """Attach operator-reported facts (e.g. ``sort_runs=5``) to
        this grant; they surface in :meth:`MemoryBroker.grants`."""
        self.notes.update(facts)

    def spill_file(self, page_rows: int):
        """A fresh spill file in the broker's pool, owned by this grant."""
        spill = self.broker.pool.spill_file(page_rows, self.owner)
        self._spill_ids.add(spill.file_id)
        return spill

    def close(self) -> None:
        """Drop the spill files still open under this grant and release
        the budget back to the broker."""
        if self.closed:
            return
        if self._spill_ids:
            for spill in self.broker.pool.live_spill_files():
                if spill.file_id in self._spill_ids:
                    spill.drop()
        self.resize_used(0)
        self.closed = True
        self.broker._release(self)

    def snapshot(self) -> GrantSnapshot:
        return GrantSnapshot(
            owner=self.owner,
            pages=self.pages,
            used=self.used,
            high_water=self.high_water,
            closed=self.closed,
            notes=tuple(sorted(self.notes.items())),
            requested=self.requested,
        )

    def __repr__(self) -> str:
        return (
            f"MemoryGrant({self.owner!r}, {self.used}/{self.pages} pages, "
            f"hw={self.high_water})"
        )


class _Unbounded:
    """The grant of an ungoverned engine (:data:`UNBOUNDED`): it never
    overflows and records nothing. Deliberately not a
    :class:`MemoryGrant`, so no broker count, metric or traced span sees it."""

    __slots__ = ()
    pages = sys.maxsize
    used = 0

    def resize_used(self, used_pages: int) -> None:
        pass

    def note(self, **facts) -> None:
        pass

    def close(self) -> None:
        pass


UNBOUNDED = _Unbounded()


class MemoryBroker:
    """Grants per-operator budgets out of a global ``work_mem``.

    Parameters
    ----------
    work_mem:
        Total working memory available to operators, in pages (>= 1).
    """

    def __init__(self, work_mem: int) -> None:
        if work_mem < 1:
            raise EngineError(f"work_mem must be >= 1 page, got {work_mem}")
        self.work_mem = int(work_mem)
        self.reserved = 0
        self.in_use = 0
        self.high_water = 0
        self.overcommits = 0
        # The pool auto-created for (or explicitly bound to) this
        # broker; spill files written under its grants live there.
        # ``None`` until bound by the engine wiring.
        self.pool = None
        # Optional flight recorder (repro.obs.trace); grant/return/
        # overcommit edges emit through it when attached.
        self.tracer = None
        # Open grants, plus the closed ones ``forget_closed`` has not
        # been told to drop yet.
        self._grants: list[MemoryGrant] = []

    def bind_pool(self, pool) -> None:
        """Bind the pool this broker's spill traffic flows through.

        Binding is sticky: rebinding to a *different* pool is an
        error, because the broker's spill accounting and any spill
        files already created would silently refer to the old pool
        (see :func:`~repro.engine.wiring.resolve_storage`).
        """
        if self.pool is not None and self.pool is not pool:
            raise EngineError(
                "MemoryBroker is already bound to a different BufferPool; "
                "create a fresh broker per pool"
            )
        self.pool = pool

    def available(self) -> int:
        return max(self.work_mem - self.reserved, 0)

    def projected_spill(self, pages_each: int, operators: int = 1) -> int:
        """Pages ``operators`` concurrent operators of ``pages_each``
        working pages would together spill, given what is free now.

        The projection a memory-aware sharing policy feeds the model:
        m unshared queries need ``m * pages_each`` pages while a
        shared group needs them once, so consolidation can turn a
        projected spill into none (the fig_mem Part B effect).
        """
        if pages_each < 0:
            raise EngineError(f"pages_each must be >= 0, got {pages_each}")
        if operators < 1:
            raise EngineError(f"operators must be >= 1, got {operators}")
        return max(0, operators * pages_each - self.available())

    def grant(self, owner: str, requested: Optional[int] = None) -> MemoryGrant:
        """Grant up to ``requested`` pages (default: everything left).

        Every operator is guaranteed a budget of at least one page even
        when ``work_mem`` is exhausted — a starved operator spills
        rather than deadlocking, so admission control stays a policy
        question above the engine.

        Grants are first come, first served: of a serial plan's sibling
        operators, the first to open may take the whole budget. The
        ``dop`` instances of a partitioned aggregate or hash join do
        not race for it — the parallel builder has each request an
        equal ``dop``-th share.
        """
        if requested is None:
            requested = self.work_mem
        if requested < 1:
            raise EngineError(f"requested pages must be >= 1, got {requested}")
        granted = max(min(requested, self.available()), 1)
        self.reserved += granted
        grant = MemoryGrant(self, owner, granted, requested)
        self._grants.append(grant)
        if self.tracer is not None:
            self.tracer.instant(
                "grant",
                "mem",
                tid=TID_MEMORY,
                owner=owner,
                pages=granted,
                requested=requested,
            )
        return grant

    def grants(self) -> tuple[GrantSnapshot, ...]:
        """The open grants plus those closed since the last
        :meth:`forget_closed`, oldest first — what a
        :class:`~repro.db.result.QueryResult` carries of its batch."""
        return tuple(grant.snapshot() for grant in self._grants)

    def forget_closed(self) -> None:
        """Stop listing the grants closed so far in :meth:`grants`.

        A long-lived owner calls this once it has read the grants of
        the work just finished (``Session.end_batch``, after each
        ``run_all`` and each serve call), so the list holds the open
        grants plus those closed since — the batch's own — and costs
        the batch, not every grant the broker ever issued. The counters
        (``high_water``, ``overcommits``) stay cumulative. A hand-driven
        engine never calls it and keeps the whole history.
        """
        self._grants = [grant for grant in self._grants if not grant.closed]

    # -- internal, driven by grants --------------------------------------

    def _adjust(self, delta: int) -> None:
        self.in_use += delta
        self.high_water = max(self.high_water, self.in_use)

    def _release(self, grant: MemoryGrant) -> None:
        self.reserved -= grant.pages
        if self.tracer is not None:
            self.tracer.instant(
                "return",
                "mem",
                tid=TID_MEMORY,
                owner=grant.owner,
                pages=grant.pages,
                high_water=grant.high_water,
            )

    def __repr__(self) -> str:
        return (
            f"MemoryBroker(work_mem={self.work_mem}, "
            f"reserved={self.reserved}, in_use={self.in_use}, "
            f"hw={self.high_water})"
        )
