"""The staged execution engine (Cordoba's execution core).

:class:`Engine` turns physical plans into simulator task graphs:

* every plan node becomes one stage task, connected to its consumers
  by bounded page queues;
* a query's root feeds a *sink* task that collects result rows into
  the query's :class:`~repro.engine.packet.QueryHandle`;
* a *sharing group* executes the common sub-plan (the pivot and
  everything below it) exactly once, with the pivot's emitter
  multiplexing pages to one queue per member — eliminating the
  replicated work below the pivot and paying the per-consumer output
  cost the model calls *s* (Section 4.3's three changes, verbatim).

Groups are validated structurally before execution: all members must
carry the pivot, and the signatures of the pivot subtrees must be
identical — merged packets must request the same operation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro.engine.costs import DEFAULT_COST_MODEL, CostModel
from repro.engine.memory import MemoryBroker
from repro.engine.operators import StageContext, build_operator_task
from repro.engine.packet import GroupHandle, QueryHandle, RowBatch
from repro.engine.plan import PlanNode
from repro.engine.wiring import resolve_storage
from repro.errors import EngineError, PivotError
from repro.sim.events import CLOSED, Compute, Get
from repro.sim.queues import SimQueue
from repro.sim.simulator import Simulator
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.page import DEFAULT_PAGE_ROWS
from repro.storage.shared_scan import ScanShareManager

__all__ = ["Engine"]


class Engine:
    """Executes physical plans on a simulated chip multiprocessor.

    Parameters
    ----------
    catalog:
        The database to query.
    simulator:
        The CMP the stages run on; its processor count is the
        experiment's ``n``.
    costs:
        Per-tuple cost model; defaults are calibrated per DESIGN.md.
    page_rows:
        Tuples per exchanged page (Cordoba's ~4K pages).
    queue_capacity:
        Bounded-buffer depth between stages (finite buffering).
    buffer_pool:
        Optional :class:`~repro.storage.buffer.BufferPool` fronting
        table (and spill) pages; scans charge ``costs.io_page`` per
        miss. ``None`` (default) keeps the seed's free-storage model.
    memory:
        Optional :class:`~repro.engine.memory.MemoryBroker` governing
        operator working memory; the hash join and hash aggregate
        spill when over their grants. When a broker is given without a
        pool, a pool sized to ``work_mem`` (but at least 16 frames) is
        created, bound to the broker, and reused on later engines; a
        bound broker combined with a *different* explicit
        ``buffer_pool`` is rejected (see
        :func:`~repro.engine.wiring.resolve_storage`).
    scan_manager:
        Optional :class:`~repro.storage.shared_scan.ScanShareManager`
        enabling cooperative (elevator) scan sharing: concurrent scans
        of a table attach to one circular cursor and share its
        physical pass, with the manager's async prefetch overlapping
        reads with CPU work. The manager's pool must be the engine's
        pool; given a manager without ``buffer_pool``, the engine
        adopts the manager's. Note that an attached scan emits its
        rows starting at its attach offset: the row *set* is
        unchanged but the order rotates, so floating-point aggregates
        folded over it may differ from an independent run in the last
        ulp (summation order) — the standard cooperative-scan caveat.
    spill_prefetch_depth:
        Read-ahead depth for spill read-back: governed operators
        (hash join cleanup, aggregate finalize, external sort merges)
        stream their spill runs through a
        :class:`~repro.storage.spill_cursor.SpillCursor` of this
        depth, overlapping the runs' ``io_page`` cost with their own
        CPU work. ``None`` (default) inherits the scan manager's
        prefetch depth when one is attached, else 0 (synchronous
        read-back).
    """

    def __init__(
        self,
        catalog: Catalog,
        simulator: Simulator,
        costs: CostModel = DEFAULT_COST_MODEL,
        page_rows: int = DEFAULT_PAGE_ROWS,
        queue_capacity: int = 4,
        buffer_pool: Optional[BufferPool] = None,
        memory: Optional[MemoryBroker] = None,
        scan_manager: Optional[ScanShareManager] = None,
        spill_prefetch_depth: Optional[int] = None,
    ) -> None:
        if queue_capacity < 1:
            raise EngineError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        (buffer_pool, memory, scan_manager, spill_prefetch_depth) = (
            resolve_storage(buffer_pool, memory, scan_manager,
                            spill_prefetch_depth)
        )
        self.catalog = catalog
        self.sim = simulator
        self.pool = buffer_pool
        self.memory = memory
        self.scan_manager = scan_manager
        self.ctx = StageContext(catalog=catalog, costs=costs,
                                page_rows=page_rows, pool=buffer_pool,
                                memory=memory, scans=scan_manager,
                                spill_prefetch=spill_prefetch_depth)
        self.queue_capacity = queue_capacity
        self.handles: list[QueryHandle] = []
        self.groups: list[GroupHandle] = []
        # Stage tasks per group (excluding sinks) — the raw material
        # for online parameter estimation (busy time per operator). A
        # coordinator pops a group's list when the group drains.
        self.group_tasks: dict[int, list] = {}
        self._group_counter = 0
        self._task_counter = 0
        self._collect_tasks: Optional[list] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(
        self,
        plan: PlanNode,
        label: str,
        on_complete: Optional[Callable[[QueryHandle], None]] = None,
        batch_rows: Optional[int] = None,
        dop: int = 1,
    ) -> QueryHandle:
        """Run one query independently (a sharing group of one).

        ``dop > 1`` requests intra-query parallelism: the plan's
        parallel region (see :mod:`repro.engine.parallel`) runs as
        ``dop`` exchange-connected fragments; plans with no such
        region silently fall back to serial execution. The returned
        row set is identical to the serial plan's either way.
        """
        if dop is None:
            dop = 1
        if dop < 1:
            raise EngineError(f"dop must be >= 1, got {dop}")
        if dop > 1:
            handle = self._execute_parallel(
                plan, label, dop, on_complete, batch_rows
            )
            if handle is not None:
                return handle
        group = self.execute_group([plan], pivot_op_id=None, labels=[label],
                                   on_complete=on_complete,
                                   batch_rows=batch_rows)
        return group.handles[0]

    def _execute_parallel(
        self,
        plan: PlanNode,
        label: str,
        dop: int,
        on_complete: Optional[Callable[[QueryHandle], None]],
        batch_rows: Optional[int],
    ) -> Optional[QueryHandle]:
        """Spawn ``plan`` as a ``dop``-way fragmented task graph.

        Returns ``None`` when the plan has no parallelizable region,
        letting :meth:`execute` fall back to the serial path. The
        bookkeeping mirrors a singleton ``execute_group``: one
        group id, one handle, tasks collected for the profiler.
        """
        from repro.engine.parallel.builder import build_parallel_query, find_region

        if find_region(plan) is None:
            return None
        if batch_rows is not None and batch_rows < 1:
            raise EngineError(f"batch_rows must be >= 1, got {batch_rows}")
        group_ctx = (
            self.ctx if batch_rows is None
            else replace(self.ctx, page_rows=batch_rows)
        )
        group_id = self._group_counter
        self._group_counter += 1
        handle = QueryHandle(
            label=label,
            schema=plan.schema,
            submitted_at=self.sim.now,
            group_id=group_id,
            shared=False,
            on_complete=on_complete,
        )
        collected: list = []
        self._collect_tasks = collected
        root_q = build_parallel_query(self, plan, dop, prefix=label, ctx=group_ctx)
        self._spawn_sink(root_q, handle)
        self._collect_tasks = None
        self.group_tasks[group_id] = collected
        group = GroupHandle(group_id=group_id, pivot_op_id=None, handles=[handle])
        self.groups.append(group)
        self.handles.append(handle)
        return handle

    def execute_group(
        self,
        plans: Sequence[PlanNode],
        pivot_op_id: Optional[str],
        labels: Optional[Sequence[str]] = None,
        on_complete: Optional[
            Callable[[QueryHandle], None]
            | Sequence[Optional[Callable[[QueryHandle], None]]]
        ] = None,
        batch_rows: Optional[int] = None,
    ) -> GroupHandle:
        """Run a group of queries, shared at ``pivot_op_id``.

        With ``pivot_op_id=None`` (allowed only for singleton groups)
        or a single plan, execution is plain independent execution.
        For m > 1 the pivot subtree runs once, multiplexed m ways.
        ``on_complete`` may be one callback for every member or a
        per-member sequence. ``batch_rows`` overrides the engine's
        ``page_rows`` for this group's stages only — the batch size the
        group's operators exchange (the simulated page geometry follows
        it, so differing batch sizes are different work and must not be
        merged into one sharing group).
        """
        if not plans:
            raise EngineError("execute_group() needs at least one plan")
        labels = list(labels) if labels is not None else [
            f"q{i}" for i in range(len(plans))
        ]
        if len(labels) != len(plans):
            raise EngineError("labels must match plans one-to-one")
        if on_complete is None or callable(on_complete):
            callbacks: list = [on_complete] * len(plans)
        else:
            callbacks = list(on_complete)
            if len(callbacks) != len(plans):
                raise EngineError("on_complete list must match plans")
        if pivot_op_id is None and len(plans) > 1:
            raise EngineError("a multi-query group requires a pivot")
        if pivot_op_id is not None:
            self._validate_group(plans, pivot_op_id)

        group_id = self._group_counter
        self._group_counter += 1
        handles = [
            QueryHandle(
                label=label,
                schema=plan.schema,
                submitted_at=self.sim.now,
                group_id=group_id,
                shared=len(plans) > 1,
                on_complete=callback,
            )
            for plan, label, callback in zip(plans, labels, callbacks)
        ]

        if batch_rows is not None and batch_rows < 1:
            raise EngineError(f"batch_rows must be >= 1, got {batch_rows}")
        group_ctx = (
            self.ctx if batch_rows is None
            else replace(self.ctx, page_rows=batch_rows)
        )
        collected: list = []
        self._collect_tasks = collected
        if pivot_op_id is None or len(plans) == 1:
            for plan, handle in zip(plans, handles):
                sink_q = self._build_subplan(plan, consumers=1,
                                             prefix=handle.label,
                                             ctx=group_ctx)[0]
                self._spawn_sink(sink_q, handle)
        else:
            pivot = plans[0].find(pivot_op_id)
            # The shared subtree may only ride an elevator cursor if
            # *every* member is order-insensitive above the pivot.
            pivot_rotation_ok = all(
                self._rotation_ok_at(plan, pivot_op_id, True)
                for plan in plans
            )
            member_queues = self._build_subplan(
                pivot, consumers=len(plans), prefix=f"g{group_id}",
                rotation_ok=pivot_rotation_ok, ctx=group_ctx,
            )
            for plan, handle, shared_q in zip(plans, handles, member_queues):
                if plan.op_id == pivot_op_id:
                    # Sharing at the root: the member consumes the
                    # pivot's output directly.
                    self._spawn_sink(shared_q, handle)
                    continue
                root_q = self._build_subplan(
                    plan,
                    consumers=1,
                    prefix=handle.label,
                    substitutions={pivot_op_id: shared_q},
                    ctx=group_ctx,
                )[0]
                self._spawn_sink(root_q, handle)

        self._collect_tasks = None
        self.group_tasks[group_id] = collected
        group = GroupHandle(group_id=group_id, pivot_op_id=pivot_op_id,
                            handles=handles)
        self.groups.append(group)
        self.handles.extend(handles)
        return group

    def retire_done(self) -> None:
        """Forget finished work: drop every done group from
        :attr:`groups` with its :attr:`group_tasks` list, and every done
        query from :attr:`handles`. A session calls this at the end of
        each batch; a hand-driven engine never does and keeps its whole
        history."""
        live = []
        for group in self.groups:
            if group.done:
                self.group_tasks.pop(group.group_id, None)
            else:
                live.append(group)
        self.groups[:] = live
        self.handles[:] = [handle for handle in self.handles if not handle.done]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _validate_group(self, plans: Sequence[PlanNode], pivot_op_id: str) -> None:
        reference = plans[0].find(pivot_op_id)
        for plan in plans[1:]:
            candidate = plan.find(pivot_op_id)
            if candidate.signature != reference.signature:
                raise PivotError(
                    f"plans disagree below pivot {pivot_op_id!r}: "
                    f"{candidate.signature!r} != {reference.signature!r}; "
                    "only identical sub-plans can be merged"
                )

    # Operators whose semantics depend on their input's row order: a
    # scan feeding one of these (without an order-restoring barrier in
    # between) must not attach to a rotated elevator cursor — limit
    # would keep different rows, merge join would reject or mismatch.
    _ORDER_SENSITIVE = frozenset({"limit", "merge_join"})
    # Operators that canonicalize order, making everything below them
    # safe to rotate again.
    _ORDER_BARRIERS = frozenset({"sort", "aggregate"})

    def _rotation_ok_at(
        self, node: PlanNode, target_op_id: str, flag: bool
    ) -> Optional[bool]:
        """Whether a rotated scan is safe at ``target_op_id``'s position
        (None when the target is not in this subtree)."""
        if node.op_id == target_op_id:
            return flag
        if node.kind in self._ORDER_BARRIERS:
            child_flag = True
        elif node.kind in self._ORDER_SENSITIVE:
            child_flag = False
        else:
            child_flag = flag
        for child in node.children:
            result = self._rotation_ok_at(child, target_op_id, child_flag)
            if result is not None:
                return result
        return None

    def _build_subplan(
        self,
        node: PlanNode,
        consumers: int,
        prefix: str,
        substitutions: Optional[dict[str, SimQueue]] = None,
        rotation_ok: bool = True,
        ctx: Optional[StageContext] = None,
    ) -> list[SimQueue]:
        """Recursively spawn stage tasks; returns the output queues.

        ``substitutions`` maps op_ids to externally provided queues —
        used to graft a member's private plan onto the shared pivot's
        per-member output queue. ``rotation_ok`` tracks whether a scan
        at this position may ride a shared elevator cursor (emit its
        rows rotated to the attach offset): an order-sensitive
        ancestor clears it, an order-restoring barrier resets it.
        ``ctx`` overrides the engine-wide stage context (used to apply
        a per-group batch-size override).
        """
        substitutions = substitutions or {}
        base_ctx = self.ctx if ctx is None else ctx
        out_queues = [
            self.sim.queue(
                f"{prefix}:{node.op_id}->out{i}", self.queue_capacity
            )
            for i in range(consumers)
        ]
        if node.kind in self._ORDER_BARRIERS:
            child_rotation_ok = True
        elif node.kind in self._ORDER_SENSITIVE:
            child_rotation_ok = False
        else:
            child_rotation_ok = rotation_ok
        in_queues = []
        for child in node.children:
            if child.op_id in substitutions:
                in_queues.append(substitutions[child.op_id])
            else:
                (child_q,) = self._build_subplan(
                    child, consumers=1, prefix=prefix,
                    substitutions=substitutions,
                    rotation_ok=child_rotation_ok,
                    ctx=ctx,
                )
                in_queues.append(child_q)
        stage_ctx = base_ctx
        if (node.kind == "scan" and not rotation_ok
                and stage_ctx.scans is not None):
            stage_ctx = replace(stage_ctx, scans=None)
        task_gen = build_operator_task(node, in_queues, out_queues, stage_ctx)
        self._task_counter += 1
        task = self.sim.spawn(
            task_gen,
            name=f"{prefix}/{node.op_id}",
            group=prefix,
        )
        if self._collect_tasks is not None:
            self._collect_tasks.append(task)
        return out_queues

    def _spawn_sink(self, in_queue: SimQueue, handle: QueryHandle) -> None:
        costs = self.ctx.costs
        sim = self.sim

        def sink():
            while True:
                page = yield Get(in_queue)
                if page is CLOSED:
                    break
                n = page._n if page.__class__ is RowBatch else len(page)
                yield Compute(costs.sink_tuple * n)
                handle.append_batch(page)

        def finished(_task):
            handle.mark_done(sim.now)

        sim.spawn(sink(), name=f"{handle.label}/sink", group=handle.label,
                  on_done=finished)
