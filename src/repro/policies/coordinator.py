"""Runtime sharing coordination (Sections 3.2 and 8.1) — the one dispatcher.

Cordoba detects sharing at run time: "when a new packet arrives at a
stage's queue, the stage thread searches the queue for other packets
that request the same operation" and merges them. The
:class:`SharingCoordinator` reproduces that behaviour at query
granularity, and every launch in the system goes through it:
``Session.run_all`` (which drains it synchronously), the open-system
``Server`` (which shares its session's instance), and the closed-system
driver (which wires one to a raw engine).

* **Same-instant arrivals merge.** Submissions are buffered and routed
  once per simulated instant, so a burst of identical queries (e.g.
  the members of a just-completed group resubmitting in a closed
  system) is evaluated as one prospective group — just as packets
  arriving together in a stage queue are merged together.
* **Busy signatures batch.** While groups of a signature are active,
  approved arrivals accumulate in a pending batch (the analogue of
  packets queueing at a busy stage). The batch launches as soon as any
  active group of the signature completes — pending work never waits
  for the whole signature to drain, which keeps multiple groups in
  flight concurrently (the Section 8.1 grouping optimization).
* **Policy-declined queries run solo** immediately, "though [they] may
  be joined later on by other queries" — their activity keeps the
  signature busy so a batch can form behind them.
* **Unmergeable arrivals run solo in submission order**, before any
  group of the same instant: no pivot, forced solo (``share=False``),
  or delayed. Forced ``share=True`` members group unasked.

Who decides: an explicit policy's ``should_share`` (asked even about a
prospective group of one), else the owning session's built-in decider
— a :class:`~repro.policies.model_guided.ModelGuidedPolicy` keyed by
pivot signature (:meth:`~repro.db.session.Session.decider`), asked
from two up. With dop > 1 the choice is four-way — share, parallelize,
both, neither — and goes to the policy's ``choose_mode`` if it has
one, else to the built-in decider's.

The prospective group size offered counts active sharers plus the
waiting batch plus the simultaneous arrivals, approximating Cordoba's
ability to attach to in-flight queries via simultaneous pipelining;
the processors offered (``effective_n``) are those not claimed by
active queries of *other* signatures ("the model-guided policy
dynamically evaluates conditions at runtime", Section 8.2). Every
routing decision appends exactly one audit record naming who decided
and what happened, with the rates of a model-priced verdict (a
:class:`~repro.core.decision.ShareDecision`, alone or carried by the
four-way projection) whoever priced it, and is scored by one rule at
every door: the last submission it covers to finish joins it.

``max_group_size`` caps launched batches, splitting oversized pending
sets into multiple concurrent groups — trading sharing for parallelism
exactly as Section 8.1 proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.decision import ShareDecision
from repro.engine.engine import Engine
from repro.engine.packet import QueryHandle
from repro.errors import PolicyError
from repro.obs.audit import AuditLog, AuditRecord
from repro.policies.base import SharingPolicy
from repro.sim.events import Sleep

__all__ = ["SharingCoordinator", "Submission"]


@dataclass
class Submission:
    """One query (a facade ``Query`` or a ``TpchQuery``) at the
    dispatcher's door and, once routed, what became of it: its engine
    handle, launch-group size, the verdict it was routed under and the
    audit record that covers it."""

    query: object
    label: str
    on_complete: Optional[Callable[[QueryHandle], None]] = None
    share: Optional[bool] = None
    delay: float = 0.0
    batch_rows: Optional[int] = None
    dop: int = 1
    handle: Optional[QueryHandle] = None
    group_size: int = 1
    decision: Optional[ShareDecision] = None
    record: Optional[AuditRecord] = None


@dataclass
class _Slot:
    """State for one merge key."""

    key: tuple
    active_groups: set = field(default_factory=set)
    pending: list = field(default_factory=list)
    flush_scheduled: bool = False


class SharingCoordinator:
    """Routes arriving queries into sharing groups per policy.

    ``session`` is the :class:`~repro.db.session.Session` dispatched
    for: its built-in decider answers when ``policy`` is ``None`` (and
    the four-way choice of a policy with no ``choose_mode``), it
    resolves each query's effective batch size and dop, and its outlook
    supplies the projections audit records carry. Without one (the
    closed-system driver's raw engine) only the explicit policy
    decides, at the engine's defaults.
    """

    def __init__(
        self,
        engine: Engine,
        policy: Optional[SharingPolicy],
        max_group_size: Optional[int] = None,
        audit: Optional[AuditLog] = None,
        attach_inflight: bool = False,
        session=None,
    ) -> None:
        self.engine = engine
        self.policy = policy
        self.max_group_size = max_group_size
        # Simultaneous pipelining (Section 3.2): with ``attach_inflight``
        # an approved arrival at a *busy* signature launches immediately
        # instead of waiting in the pending batch — its scan attaches to
        # the in-flight elevator group mid-revolution through the
        # ScanShareManager (requires cooperative scans to actually share
        # work; without them it degrades to a concurrent solo run).
        self.attach_inflight = attach_inflight
        self.audit = audit
        self.session = session
        self._slots: dict[tuple, _Slot] = {}
        self._active_members: dict[int, int] = {}
        self._launched: dict[int, tuple[str, int]] = {}  # group -> name, size
        # seq -> [members running, pool misses at decision, members]
        self._open: dict[int, list] = {}
        self._arrivals: list[Submission] = []
        self._route_scheduled = False
        # Decision accounting for experiments.
        self.shared_submissions = 0
        self.solo_submissions = 0
        self.launched_group_sizes: list[int] = []

    @property
    def max_group_size(self) -> Optional[int]:
        return self._max_group_size

    @max_group_size.setter
    def max_group_size(self, cap: Optional[int]) -> None:
        if cap is not None and cap < 1:
            raise PolicyError(f"max_group_size must be >= 1, got {cap}")
        self._max_group_size = cap

    # ------------------------------------------------------------------

    def submit(
        self,
        query,
        label: str,
        on_complete: Optional[Callable[[QueryHandle], None]] = None,
        share: Optional[bool] = None,
        delay: float = 0.0,
    ) -> Submission:
        """Accept one arriving query; routed at the end of the instant.

        ``share`` overrides the decider for this submission (``True``
        groups it with same-key arrivals, ``False`` runs it solo);
        ``delay`` launches it solo that much simulated time after it
        is routed. The returned :class:`Submission` fills in as the
        query is routed and launched.
        """
        batch_rows, dop = None, 1
        if self.session is not None:
            batch_rows, dop = self.session.execution_settings(query)
        entry = Submission(query, label, on_complete, share, delay, batch_rows, dop)
        self._arrivals.append(entry)
        if not self._route_scheduled:
            self._route_scheduled = True
            self.engine.sim.call_soon(self._route_arrivals)
        return entry

    def pending_count(self) -> int:
        return sum(len(slot.pending) for slot in self._slots.values())

    def inflight_count(self) -> int:
        """Members of launched groups that have not yet completed."""
        return sum(self._active_members.values())

    def queued_count(self) -> int:
        """Arrivals accepted but not yet running: the same-instant
        buffer plus every busy signature's pending batch."""
        return len(self._arrivals) + self.pending_count()

    def drain(self) -> None:
        """Route buffered arrivals immediately (for non-simulated use)."""
        if self._route_scheduled or self._arrivals:
            self._route_scheduled = False
            self._route_arrivals()

    # ------------------------------------------------------------------

    def _route_arrivals(self) -> None:
        self._route_scheduled = False
        arrivals, self._arrivals = self._arrivals, []
        batches: dict[tuple, list[Submission]] = {}
        for entry in arrivals:
            query = entry.query
            signature = query.pivot_signature
            if entry.delay > 0:
                self._launch_later(entry)
            elif entry.share is False or signature is None:
                self._launch_solo(entry)
            else:
                # Merge candidates agree on the pivot's signature (the
                # engine's merge test) and op_id (how the engine
                # addresses it in every member), the query name
                # (policies key their specs on it), and the effective
                # batch size and dop (one pipeline, one mode choice).
                key = (
                    signature,
                    query.pivot_op_id,
                    query.name,
                    entry.batch_rows,
                    entry.dop,
                )
                batches.setdefault(key, []).append(entry)
        for key, batch in batches.items():
            self._route_batch(self._slots.setdefault(key, _Slot(key)), batch)

    def _launch_solo(self, entry: Submission) -> None:
        """Launch one unmergeable arrival at its own dop, under a
        per-name slot so completion bookkeeping still works and the
        entry's signature does not read as busy."""
        source = "forced" if entry.share is False else "solo"
        self._record(source, "parallel" if entry.dop > 1 else "solo", [entry], 1)
        self.solo_submissions += 1
        key = ("solo", entry.query.name)
        self._launch(self._slots.setdefault(key, _Slot(key)), [entry])

    def _launch_later(self, entry: Submission) -> None:
        def sleeper():
            yield Sleep(entry.delay)
            self._launch_solo(entry)

        self.engine.sim.spawn(sleeper(), name=f"submit/{entry.label}")

    def _route_batch(self, slot: _Slot, batch: list[Submission]) -> None:
        query, dop = batch[0].query, batch[0].dop
        slot_active = sum(self._active_members.get(gid, 0) for gid in slot.active_groups)
        effective_n = max(
            1,
            self.engine.sim.n_processors - (self.inflight_count() - slot_active),
        )
        prospective = slot_active + len(slot.pending) + len(batch)
        busy = bool(slot.active_groups or slot.pending)
        forced = [entry for entry in batch if entry.share]
        undecided = [entry for entry in batch if entry.share is None]

        decision = mode_rate = None
        chunk = 2
        if not undecided:
            source, mode = ("forced", "share") if prospective >= 2 else ("solo", "solo")
        elif self.policy is None and (self.session is None or prospective < 2):
            source, mode = "solo", "solo"
        else:
            # The four-way choice — share, parallelize, both, or
            # neither — when members may fragment. Any forced
            # share=True member pins the group to the binary verdict.
            four_way = dop > 1 and not forced and prospective >= 2
            source, decider, key = self._decider(query, four_way)
            if four_way:
                projection = decider.choose_mode(key, prospective, effective_n, dop)
                decision = projection.decision
                mode = projection.mode
                mode_rate = prospective / projection.makespans[mode]
                chunk = max(2, projection.partition_group_size)
            else:
                verdict = decider.should_share(key, prospective, effective_n)
                if isinstance(verdict, ShareDecision):
                    decision = verdict
                mode = "share" if verdict else "solo"
        for entry in undecided:
            entry.decision = decision

        if mode == "share":
            self._share(source, slot, batch, busy, prospective, decision, mode_rate)
        elif mode == "both":
            self._record(source, mode, batch, prospective, decision, mode_rate)
            self.shared_submissions += len(batch)
            for start in range(0, len(batch), chunk):
                self._launch(slot, batch[start : start + chunk], serial=True)
        else:
            # "parallel" keeps each member's dop; declined members of a
            # real prospective group run serial; a group of one had
            # nothing to decline and keeps its dop.
            serial = mode == "solo" and prospective >= 2
            # Enough submitters pinned share=True to group anyway; the
            # decision record then measures the solo remainder.
            regroup = len(forced) >= 2
            rest = undecided if regroup else batch
            outcome = "solo" if serial or dop == 1 else "parallel"
            self._record(source, outcome, rest, prospective, decision, mode_rate)
            if regroup:
                self._share("forced", slot, forced, busy, len(forced))
            self.solo_submissions += len(rest)
            for entry in rest:
                self._launch(slot, [entry], serial=serial)

    def _decider(self, query, four_way: bool) -> tuple[str, SharingPolicy, str]:
        """Who decides, and the key it prices ``query`` under: the
        explicit policy (by query name) — unless the choice is four-way
        and it has no ``choose_mode`` — else the session's built-in
        :class:`~repro.policies.model_guided.ModelGuidedPolicy` (by
        pivot signature)."""
        policy = self.policy
        if policy is not None and (not four_way or hasattr(policy, "choose_mode")):
            return "policy", policy, query.name
        decider, key = self.session.decider(query)
        return "advisor", decider, key

    def _share(self, source, slot, batch, busy, group_size, decision=None, mode_rate=None) -> None:
        """Record and carry out a verdict to share ``batch``."""
        self._record(source, "attach" if busy else "share", batch, group_size, decision, mode_rate)
        self.shared_submissions += len(batch)
        if busy and not self.attach_inflight:
            slot.pending.extend(batch)
        else:
            # Idle signature — or mid-flight attach: the new scans join
            # the in-flight elevator group at its current page instead
            # of waiting for the active group to drain.
            self._launch_capped(slot, batch)

    # ------------------------------------------------------------------

    def audit_decision(
        self,
        source: str,
        outcome: str,
        query,
        group_size: int,
        decision: Optional[ShareDecision] = None,
        projections: Optional[dict] = None,
    ) -> AuditRecord:
        """Append one decision record: who decided, what happened, the
        rates ``decision`` was priced with, and the projections in force
        at decision time — ``projections`` when the caller already took
        them, else the session outlook's here."""
        signature = query.pivot_signature
        fields: dict = {}
        if projections is not None:
            fields = dict(projections)
        elif self.session is not None and signature is not None:
            fields = self.session.outlook.projections(signature, group_size)
        if decision is not None:
            fields.update(
                projected_z=decision.benefit,
                projected_shared_rate=decision.shared_rate,
                projected_unshared_rate=decision.unshared_rate,
            )
        return self.audit.append(
            query=query.name,
            signature=signature or "",
            group_size=group_size,
            source=source,
            outcome=outcome,
            decided_at=self.engine.sim.now,
            **fields,
        )

    def _record(
        self,
        source: str,
        outcome: str,
        entries: list[Submission],
        group_size: int,
        decision: Optional[ShareDecision] = None,
        mode_rate: Optional[float] = None,
    ) -> None:
        """The one record per routing decision, bound to the
        submissions it covers and open until the last one finishes."""
        if self.audit is None:
            return
        record = self.audit_decision(source, outcome, entries[0].query, group_size, decision)
        record.projected_mode_rate = mode_rate
        for entry in entries:
            entry.record = record
        pool = self.engine.pool
        misses = float(pool.stats.misses) if pool is not None else None
        self._open[record.seq] = [len(entries), misses, entries]

    def _member_done(self, record: AuditRecord) -> None:
        """Count one finished member; the last joins the record with
        its members' wall and the pool misses since the decision."""
        state = self._open[record.seq]
        state[0] -= 1
        if state[0]:
            return
        del self._open[record.seq]
        _, misses, entries = state
        handles = [entry.handle for entry in entries]
        latency = max(h.finished_at for h in handles) - min(h.submitted_at for h in handles)
        reads = None if misses is None else self.engine.pool.stats.misses - misses
        record.join(latency, physical_reads=reads)

    # ------------------------------------------------------------------

    def _launch_capped(self, slot: _Slot, batch: list[Submission]) -> None:
        cap = self.max_group_size or len(batch)
        for start in range(0, len(batch), cap):
            self._launch(slot, batch[start : start + cap])

    def _launch(self, slot: _Slot, batch: list[Submission], serial: bool = False) -> None:
        """The one launch site. A singleton runs at its own dop unless
        ``serial``; a group shares at the pivot and never fragments."""
        first = batch[0]
        callbacks = [self._wrap(slot, entry) for entry in batch]
        if len(batch) == 1 and first.dop > 1 and not serial:
            handles = [
                self.engine.execute(
                    first.query.plan,
                    first.label,
                    on_complete=callbacks[0],
                    batch_rows=first.batch_rows,
                    dop=first.dop,
                )
            ]
        else:
            handles = self.engine.execute_group(
                [entry.query.plan for entry in batch],
                pivot_op_id=first.query.pivot_op_id if len(batch) > 1 else None,
                labels=[entry.label for entry in batch],
                on_complete=callbacks,
                batch_rows=first.batch_rows,
            ).handles
        size = len(batch)
        for entry, handle in zip(batch, handles):
            entry.handle = handle
            entry.group_size = size
        group_id = handles[0].group_id
        slot.active_groups.add(group_id)
        self._active_members[group_id] = size
        self._launched[group_id] = (first.query.name, size)
        self.launched_group_sizes.append(size)

    def _wrap(self, slot: _Slot, entry: Submission) -> Callable[[QueryHandle], None]:
        # Capture fields, not the entry: an entry -> handle -> callback
        # -> entry cycle would outlive the batch until a full collection.
        record, client_callback = entry.record, entry.on_complete

        def on_query_done(handle: QueryHandle) -> None:
            remaining = self._active_members.get(handle.group_id, 0) - 1
            group_drained = remaining <= 0
            if group_drained:
                self._active_members.pop(handle.group_id, None)
                slot.active_groups.discard(handle.group_id)
                self._notify_policy(handle)
            else:
                self._active_members[handle.group_id] = remaining
            if record is not None:
                self._member_done(record)
            # The client's callback typically resubmits (closed system);
            # run it before scheduling the flush so same-instant
            # resubmissions can still join the departing batch.
            if client_callback is not None:
                client_callback(handle)
            if group_drained and not slot.flush_scheduled:
                slot.flush_scheduled = True
                self.engine.sim.call_soon(lambda: self._flush(slot))

        return on_query_done

    def _flush(self, slot: _Slot) -> None:
        slot.flush_scheduled = False
        if not slot.pending:
            return
        pending, slot.pending = slot.pending, []
        self._launch_capped(slot, pending)

    def _notify_policy(self, handle: QueryHandle) -> None:
        """Feed the completed group back to learning policies. The
        group's task list is read here once, so it leaves the engine."""
        tasks = self.engine.group_tasks.pop(handle.group_id, None)
        query_name, group_size = self._launched.pop(handle.group_id)
        if self.policy is not None and tasks is not None:
            self.policy.observe_group(query_name, group_size, tasks)
