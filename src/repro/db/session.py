"""The Database/Session facade: submit queries, let the system decide.

The paper's end state is an engine that decides *for itself* when to
share. :class:`Session` is that loop packaged behind one object:

* :meth:`Session.table` starts a fluent
  :class:`~repro.db.builder.QueryBuilder` lowering to the engine's
  plan IR;
* :meth:`Session.submit` hands queries to the session's
  :class:`~repro.policies.coordinator.SharingCoordinator` — the one
  dispatcher, shared with any ``Server`` stood on this session;
  :meth:`Session.run_all` drains it (the batch groups by **pivot
  signature** — equal pivot subtrees request the same operation, the
  engine's merge test — the sharing policy is consulted per group and
  shared groups or solo queries launch accordingly), runs the
  simulator, and returns one
  :class:`~repro.db.result.QueryResult` per submission;
* the default decider is a
  :class:`~repro.policies.model_guided.ModelGuidedPolicy` fed by an
  on-demand CPU profile of each new operation (cached per signature)
  and adjusted per decision by a live
  :class:`~repro.policies.resource_outlook.ResourceOutlook` over the
  session's pool/broker/manager — so the fig_mem Part B flip (share
  against a cold cache, decline warm) happens with zero manual
  wiring. Pass any :class:`~repro.policies.base.SharingPolicy`
  (``ModelGuided``, ``OnlineModelGuided``, ``AlwaysShare``, ...) to
  override. The coordinator asks the session for what only it knows:
  the built-in decider, each query's config-resolved batch size and
  dop, the outlook's projections.

Sessions are cheap: one simulator, one engine, one storage-component
set built from the :class:`~repro.db.config.RuntimeConfig`. Simulated
time and cache state persist across ``run_all`` batches — a second
batch of the same queries sees a warm pool, which is exactly what
makes its sharing decision flip.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Union

from repro.core.decision import ShareDecision
from repro.core.spec import QuerySpec
from repro.db.builder import Query, QueryBuilder
from repro.db.config import RuntimeConfig
from repro.db.result import QueryResult
from repro.engine.engine import Engine
from repro.engine.parallel import find_region
from repro.engine.plan import PlanNode
from repro.engine.stats import retire_finished
from repro.errors import EngineError
from repro.obs import (
    AuditLog,
    MetricsRegistry,
    Tracer,
    WallProfiler,
    attach_profiler,
    attach_tracer,
)
from repro.policies.base import SharingPolicy
from repro.policies.coordinator import SharingCoordinator, Submission
from repro.policies.model_guided import ModelGuidedPolicy
from repro.policies.resource_outlook import ResourceOutlook, ResourceProfile
from repro.policies.workset import estimate_work_pages
from repro.profiling.profiler import QueryProfiler
from repro.sim.simulator import Simulator
from repro.storage.catalog import Catalog
from repro.tpch.queries import TpchQuery

__all__ = ["Database", "Session"]

Submittable = Union[Query, QueryBuilder, PlanNode, TpchQuery]


class Database:
    """A catalog plus the runtime configuration to query it with.

    Examples
    --------
    :meth:`Database.open` is the one-call entry point — a catalog and
    a config (object, preset name, or nothing for the ungoverned
    default) yield a live :class:`Session`:

    >>> from repro.db import Database
    >>> from repro.storage import Catalog, DataType, Schema
    >>> catalog = Catalog()
    >>> table = catalog.create("t", Schema([("k", DataType.INT)]))
    >>> table.insert_many([(i,) for i in range(4)])
    >>> session = Database.open(catalog, "unbounded")
    >>> session.run(session.table("t", columns=["k"])).rows
    [(0,), (1,), (2,), (3,)]
    """

    def __init__(
        self,
        catalog: Catalog,
        config: Union[RuntimeConfig, str, None] = None,
    ) -> None:
        if config is None:
            config = RuntimeConfig()
        elif isinstance(config, str):
            config = RuntimeConfig.preset(config)
        self.catalog = catalog
        self.config = config

    @classmethod
    def open(
        cls,
        catalog: Catalog,
        config: Union[RuntimeConfig, str, None] = None,
        policy: Optional[SharingPolicy] = None,
    ) -> "Session":
        """Open a fresh :class:`Session` — the one-call entry point."""
        return cls(catalog, config).session(policy=policy)

    def session(self, policy: Optional[SharingPolicy] = None) -> "Session":
        """Mint a session: fresh simulator, engine, and storage set."""
        return Session(self, policy=policy)

    def serve(self, policy: Optional[SharingPolicy] = None, **server_kwargs):
        """Open a fresh session and stand a long-running open-system
        :class:`~repro.server.server.Server` on it. ``policy`` is the
        *sharing* policy (``None`` = the session's outlook-driven
        advisor); admission control, in-flight caps, and mid-flight
        attach are forwarded via ``server_kwargs``."""
        from repro.server.server import Server

        return Server(self.session(), policy=policy, **server_kwargs)

    def __repr__(self) -> str:
        return f"Database({len(self.catalog)} tables, {self.config!r})"


class Session:
    """One simulated machine executing queries under one policy.

    Parameters
    ----------
    database:
        The :class:`Database` (catalog + config) this session queries.
    policy:
        Optional :class:`~repro.policies.base.SharingPolicy` deciding
        share-vs-solo per prospective group. ``None`` (default) uses
        the built-in decider (:meth:`decider`): a
        :class:`~repro.policies.model_guided.ModelGuidedPolicy` over an
        on-demand CPU profile per operation, adjusted by the live
        resource outlook, sharing when the Section-4 model predicts
        ``Z`` above 1.0.

    Examples
    --------
    Buffer queries with :meth:`submit`, run the batch with
    :meth:`run_all`; same-operation submissions group by pivot
    signature and the session decides (or you force) the routing:

    >>> from repro.db import Database
    >>> from repro.storage import Catalog, DataType, Schema
    >>> catalog = Catalog()
    >>> table = catalog.create("t", Schema([("k", DataType.INT)]))
    >>> table.insert_many([(i,) for i in range(64)])
    >>> session = Database.open(catalog, "cmp32")
    >>> for i in range(3):
    ...     session.submit(session.table("t", columns=["k"]),
    ...                    label=f"client{i}", share=True)
    >>> [(r.label, r.shared, r.group_size, len(r.rows))
    ...  for r in session.run_all()]
    [('client0', True, 3, 64), ('client1', True, 3, 64), \
('client2', True, 3, 64)]

    The session clock and cache state persist across batches — that
    warm state is exactly what can flip the next sharing decision.

    >>> session.now > 0
    True
    """

    def __init__(self, database: Database, policy: Optional[SharingPolicy] = None) -> None:
        config = database.config
        self.database = database
        self.catalog = database.catalog
        self.config = config
        self.sim = Simulator(
            processors=config.processors, contention=config.contention
        )
        pool, memory, scans, spill_depth = config.build_storage()
        self.engine = Engine(
            self.catalog,
            self.sim,
            costs=config.cost_model,
            page_rows=config.page_rows,
            queue_capacity=config.queue_capacity,
            buffer_pool=pool,
            memory=memory,
            scan_manager=scans,
            spill_prefetch_depth=spill_depth,
        )
        self.results: list[QueryResult] = []
        self._pending: list[Submission] = []
        self._specs: dict[str, tuple[QuerySpec, str]] = {}
        self._decider: Optional[ModelGuidedPolicy] = None
        self._outlook = ResourceOutlook(
            {},
            costs=config.cost_model,
            pool=self.engine.pool,
            scans=self.engine.scan_manager,
            memory=self.engine.memory,
        )
        # Observability: flight recorder (opt-in via config.trace),
        # the unified metric surface, and the decision audit trail.
        self.tracer: Optional[Tracer] = None
        if config.trace:
            self.tracer = attach_tracer(
                self.sim,
                pool=self.engine.pool,
                memory=self.engine.memory,
                scans=self.engine.scan_manager,
            )
        # Wall-clock profiler (opt-in via config.perf): the host-time
        # counterpart of the tracer — attached before any plan is
        # built so every stage's emitter reports rows to it.
        self._perf: Optional[WallProfiler] = None
        if config.perf:
            self._perf = attach_profiler(self.sim, self.engine)
        self._metrics = MetricsRegistry.for_engine(self.engine, self.sim)
        self._audit = AuditLog()
        # The one dispatcher: run_all drains it, a Server stood on this
        # session submits into it as arrivals come.
        self.coordinator = SharingCoordinator(
            self.engine, policy, audit=self._audit, session=self
        )

    # -- introspection ---------------------------------------------------

    @property
    def pool(self):
        return self.engine.pool

    @property
    def memory(self):
        return self.engine.memory

    @property
    def scans(self):
        return self.engine.scan_manager

    @property
    def outlook(self) -> ResourceOutlook:
        """The live resource outlook over this session's pool, broker
        and scan manager: the projections every decision record
        carries, and the built-in decider's spec adjustment."""
        return self._outlook

    @property
    def now(self) -> float:
        """Current simulated time — the session clock, cumulative
        across every batch run so far (a fresh session's first batch
        therefore finishes at its makespan)."""
        return self.sim.now

    def metrics(self) -> MetricsRegistry:
        """The session's unified metric surface — every storage, sim,
        and stage counter behind one ``snapshot()``/``delta()``."""
        return self._metrics

    def audit_log(self) -> AuditLog:
        """Every routing decision this session has made, with its
        projections and (once its members finish) the measured outcome."""
        return self._audit

    def perf(self) -> WallProfiler:
        """The session's wall-clock operator profiler — per-operator
        host time, rows/s, and the work-vs-harness decomposition
        (:class:`~repro.obs.perf.WallProfiler`). Requires
        ``RuntimeConfig(perf=True)``."""
        if self._perf is None:
            raise EngineError(
                "session has no wall-clock profiler; open it with "
                "RuntimeConfig(perf=True) (or .with_(perf=True))"
            )
        return self._perf

    def prewarm(self, *tables: str) -> int:
        """Load the given tables' pages into the pool (a warm cache)."""
        if self.engine.pool is None:
            raise EngineError("session has no buffer pool to prewarm")
        loaded = 0
        for name in tables:
            loaded += self.engine.pool.prewarm_table(
                self.catalog.table(name), self.config.page_rows
            )
        return loaded

    # -- building and submitting -----------------------------------------

    def table(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
    ) -> QueryBuilder:
        """Start a fluent query over one base table."""
        return QueryBuilder(self.catalog, name, columns=columns)

    @staticmethod
    def _as_query(query: Submittable) -> Union[Query, TpchQuery]:
        if isinstance(query, QueryBuilder):
            return query.build()
        if isinstance(query, PlanNode):
            return Query(plan=query, pivot_op_id=None, name=query.op_id)
        if isinstance(query, (Query, TpchQuery)):
            return query
        raise EngineError(
            f"cannot submit {type(query).__name__}; expected a "
            "QueryBuilder, Query, TpchQuery, or PlanNode"
        )

    def submit(
        self,
        query: Submittable,
        label: Optional[str] = None,
        share: Optional[bool] = None,
        delay: float = 0.0,
    ) -> None:
        """Hand one query to the coordinator for the next :meth:`run_all`
        (it waits in the same-instant arrival buffer until then).

        ``share`` overrides the policy for this submission (``True``
        forces it into a group with same-signature submissions,
        ``False`` forces solo); ``None`` lets the policy decide.
        ``delay`` postpones the launch by that much simulated time
        (the query then always runs solo — it arrives after the
        batch's grouping decision).
        """
        if delay < 0:
            raise EngineError(f"delay must be >= 0, got {delay}")
        built = self._as_query(query)
        self._pending.append(
            self.coordinator.submit(
                built,
                label or f"{built.name}#{len(self._pending)}",
                share=share,
                delay=delay,
            )
        )

    def run(
        self,
        query: Submittable,
        label: Optional[str] = None,
        share: Optional[bool] = None,
    ) -> QueryResult:
        """Submit one query, run the pending batch, return its result.

        Equivalent to ``submit(...)`` followed by ``run_all()``: any
        queries already buffered by earlier ``submit`` calls run in
        the same batch (and may group with this one); their results
        land in :attr:`results` as usual.
        """
        self.submit(query, label=label, share=share)
        return self.run_all()[-1]

    # -- the decision loop -----------------------------------------------

    def run_all(self) -> list[QueryResult]:
        """Route the buffered batch, execute it, and collect results.

        The coordinator groups the submissions by pivot signature;
        each group of two or more consults the policy once (unless
        forced via ``submit(share=...)``). Returns results in
        submission order and appends them to :attr:`results`.

        What the results carry of the session's state is cut to the
        batch, so a session's cost per batch does not grow with its
        age: ``grants`` lists the memory grants of this batch (the
        broker forgets them once reported) and ``metrics`` keeps
        the ``stage.<op_id>.*`` rows of this batch's operators; every
        counter stays cumulative, and :meth:`metrics` stays complete.
        Then :meth:`end_batch` retires what the batch finished.
        """
        batch, self._pending = self._pending, []
        if not batch:
            return []
        spawned_before = self.sim.spawned
        self.coordinator.drain()
        self.sim.run()
        grants = self.engine.memory.grants() if self.engine.memory is not None else ()
        tasks = self.sim.tasks
        spawned = self.sim.spawned - spawned_before
        ran = {task.name.rsplit("/", 1)[-1] for task in tasks[len(tasks) - spawned :]}
        snapshot = self._metrics.snapshot(scope=ran)
        self.end_batch()
        wall_profile = (
            tuple(self._perf.profile()) if self._perf is not None else None
        )
        makespan = self.sim.now
        results = []
        for entry in batch:
            handle = entry.handle
            if handle is None or not handle.done:
                raise EngineError(
                    f"query {entry.label!r} did not complete; the "
                    "simulation deadlocked or was stopped early"
                )
            results.append(
                QueryResult(
                    label=entry.label,
                    name=entry.query.name,
                    schema=handle.schema,
                    rows=handle.rows,
                    submitted_at=handle.submitted_at,
                    finished_at=handle.finished_at,
                    shared=handle.shared,
                    group_size=entry.group_size,
                    decision=entry.decision,
                    makespan=makespan,
                    metrics=snapshot,
                    grants=grants,
                    audit=(entry.record,),
                    perf=wall_profile,
                )
            )
        self.results.extend(results)
        return results

    def end_batch(self) -> None:
        """Retire the history no later report needs, at the point each
        door ends a batch: :meth:`run_all` once its results hold what
        they report, a ``Server`` after each serve call.

        Drops the broker's closed grants, the simulator's finished
        prefix of tasks (its stage sums stay in the fold — see
        :func:`~repro.engine.stats.retire_finished`) and the engine's
        done groups, handles and group task lists. Every counter stays
        cumulative (``sim.tasks`` and ``sim.completions`` included), so
        a long-lived session's memory stays flat; :attr:`results` and
        the audit log are the history it keeps. A hand-driven engine
        never calls this and keeps everything.
        """
        if self.engine.memory is not None:
            self.engine.memory.forget_closed()
        retire_finished(self.sim)
        self.engine.retire_done()

    def execution_settings(self, query: Union[Query, TpchQuery]) -> tuple[Optional[int], int]:
        """The exchange batch size (``None`` = the page geometry) and
        intra-query dop in force for ``query``: a facade
        :class:`Query`'s own override, else the config's — and dop 1
        when the plan has no parallelizable region (the engine would
        fall back anyway; resolving it here keeps routing honest)."""
        batch_rows, dop = self.config.batch_size, self.config.dop
        if isinstance(query, Query):
            if query.batch_size is not None:
                batch_rows = query.batch_size
            if query.dop is not None:
                dop = query.dop
        if dop > 1 and find_region(query.plan) is None:
            dop = 1
        return batch_rows, dop

    # -- the built-in decider ---------------------------------------------

    def decider(self, query: Union[Query, TpchQuery]) -> tuple[ModelGuidedPolicy, str]:
        """The built-in decider and the key it prices ``query`` under.

        The decider is a :class:`~repro.policies.model_guided
        .ModelGuidedPolicy` over this session's CPU profiles — one per
        pivot signature (the key), taken on first use, so an ad-hoc
        query that reuses a name with new constants gets its own — and
        its live resource outlook. It prices against the whole machine
        (``config.processors``) at threshold 1.0, its binary ``Z``
        contention-free and its four-way projection at
        ``config.contention``.
        """
        signature = query.pivot_signature
        self._profile(signature, query)
        if self._decider is None:
            self._decider = ModelGuidedPolicy(
                self._specs,
                threshold=1.0,
                outlook=self._outlook,
                processors=self.config.processors,
                mode_contention=self.config.contention,
            )
        return self._decider, signature

    def advise(
        self,
        query: Submittable,
        group_size: int,
        cpu_skew: Optional[float] = None,
    ) -> ShareDecision:
        """The built-in verdict: would sharing ``group_size`` copies of
        ``query`` beat running them independently *right now*?

        Asks :meth:`decider` — a cached CPU profile of the operation
        and the live resource outlook (cold pages, spill pressure),
        re-evaluated per call, so the same query can share against a
        cold cache and decline once the cache warms — and appends a
        standalone audit record of the verdict.

        ``cpu_skew`` (slowest consumer's per-page CPU over the
        fastest's, 1.0 = uniform) projects consumer-speed skew onto
        the decision: the outlook discounts the cooperative-scan
        attach benefit by the drift the configured manager would let
        such a convoy accumulate, so advice to skewed convoys stops
        assuming they share one physical pass. A declared skew sticks
        to the operation — later ``advise`` calls and ``run_all``'s
        routing reuse it until a new value is declared (``None``, the
        default, keeps the stored projection).
        """
        built = self._as_query(query)
        if built.pivot_op_id is None:
            raise EngineError(f"query {built.name!r} has no sharing pivot to advise on")
        if cpu_skew is not None and cpu_skew < 1:
            raise EngineError(f"cpu_skew must be >= 1, got {cpu_skew}")
        decider, signature = self.decider(built)
        profile = self._outlook.profiles[signature]
        if cpu_skew is not None and profile.cpu_skew != cpu_skew:
            self._outlook.profiles[signature] = replace(profile, cpu_skew=cpu_skew)
        decision, _, projections = decider.price(signature, group_size, self.config.processors)
        self.coordinator.audit_decision(
            "advisor",
            "share" if decision.share else "solo",
            built,
            group_size,
            decision=decision,
            projections=projections,
        )
        return decision

    def _profile(self, signature: str, query: Query) -> tuple[QuerySpec, str]:
        """CPU-profile one operation (cached by pivot signature).

        Profiling runs on dedicated simulators with *no* resource
        layer, so the fitted ``(w, s)`` are warm/CPU parameters; the
        outlook layers projected I/O and spill terms on top per
        decision — the PR-2 recipe, now automatic.
        """
        cached = self._specs.get(signature)
        if cached is not None:
            return cached
        profiler = QueryProfiler(
            self.catalog,
            costs=self.config.cost_model,
            page_rows=self.config.page_rows,
            queue_capacity=self.config.queue_capacity,
        )
        profile = profiler.profile(query.plan, query.pivot_op_id, label=query.name)
        spec = profile.to_query_spec()
        self._specs[signature] = (spec, query.pivot_op_id)
        pivot_node = query.plan.find(query.pivot_op_id)
        # Resource profile: the pivot subtree's dominant base scan
        # feeds the I/O projection; the *whole plan's* estimated
        # stateful working set feeds the spill projection (a sort
        # above the pivot still competes for this query's work_mem).
        scans_below = [n for n in pivot_node.walk() if n.kind == "scan"]
        if scans_below:
            table = max(
                scans_below,
                key=lambda n: len(self.catalog.table(n.params["table"])),
            ).params["table"]
            pages = self.catalog.table(table).page_count(self.config.page_rows)
        else:
            table, pages = "", 0
        self._outlook.profiles[signature] = ResourceProfile(
            table=table,
            pages=pages,
            work_pages=estimate_work_pages(
                query.plan, self.catalog, self.config.page_rows
            ),
        )
        return self._specs[signature]

    def __repr__(self) -> str:
        return (
            f"Session({len(self.catalog)} tables, "
            f"{self.config.processors} processors, now={self.now:.6g})"
        )
