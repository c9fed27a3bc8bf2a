"""The open-system service tier: a long-running server over one Session.

Every experiment before this one was *closed*: a fixed batch runs to
completion and the makespan is the answer. A deployed engine is
*open* — queries arrive on their own clock, and the question the paper
actually poses ("to share or not to share?") changes character: a
sharing decision that wins makespan can lose *response time* by
convoying latecomers behind a mega-group. :class:`Server` is the
harness that makes the open-system regime first-class:

* **Arrivals** come from a seeded Poisson process
  (:func:`poisson_arrivals`) or an explicit trace (any iterable of
  :class:`Arrival`), multiplexing any number of *tenants* onto one
  engine.
* **Admission control** (:mod:`repro.server.admission`) inspects
  queue depth / projected latency per arrival and sheds the excess —
  every shed is an explicit ``source="server"`` record in the
  session's audit log, so overload degrades to *bounded* queues and
  an *accounted* loss, never an unbounded backlog.
* **Dispatch** feeds admitted queries to its session's
  :class:`~repro.policies.coordinator.SharingCoordinator` — the same
  instance ``Session.run_all`` drains, so an arrival is routed,
  launched (at the batch size and dop its query and the config ask
  for) and audited by exactly the rules a batch submission is. It
  merges same-operation arrivals into elevator groups; with
  cooperative scans configured, ``attach_inflight`` lets a late
  arrival attach to a group mid-revolution (the paper's simultaneous
  pipelining) instead of waiting for the group to drain.
* **Tenant isolation** comes from the config's
  :class:`~repro.storage.tenant_pool.TenantShare` partitions: each
  tenant's resident pages are capped at its share no matter how the
  arrival mix skews.

The :class:`ServerReport` a run returns carries the open-system
metrics the figures need — goodput (completions inside the arrival
horizon per unit time), p50/p99 response time, shed/backlog
conservation, per-tenant breakdowns — all in simulated time, so the
same seed reproduces the same report byte for byte. Each is read off
the run's :class:`ServedQuery` records in one pass when the run ends;
the server itself counts only its lifetime ``total_*`` counters (the
``server.*`` metric family) beside them.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.db.config import RuntimeConfig
from repro.db.session import Database, Session
from repro.engine.packet import QueryHandle
from repro.errors import EngineError, PolicyError
from repro.obs.trace import TID_SERVER
from repro.policies.base import SharingPolicy
from repro.server.admission import AdmissionPolicy, AdmissionView, QueueDepthBound
from repro.server.stats import LatencyStats
from repro.sim.events import Sleep
from repro.storage.catalog import Catalog
from repro.storage.tenant_pool import TenantPartitionedPool
from repro.workload.mixes import WorkloadMix

__all__ = [
    "Arrival",
    "ServedQuery",
    "TenantReport",
    "ServerReport",
    "Server",
    "poisson_arrivals",
]

DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class Arrival:
    """One query arriving at the server at simulated time ``at``
    (relative to the start of the serve call), billed to ``tenant``."""

    at: float
    query: object  # a facade Query or a TpchQuery
    tenant: str = DEFAULT_TENANT
    label: str = ""

    def __post_init__(self) -> None:
        if self.at < 0:
            raise EngineError(f"arrival time must be >= 0, got {self.at}")


@dataclass
class ServedQuery:
    """The server-side record of one arrival, from submission to its
    terminal outcome (``completed`` / ``shed`` / ``backlog``)."""

    label: str
    name: str
    tenant: str
    submitted_at: float
    outcome: str = "backlog"
    admitted_at: Optional[float] = None
    finished_at: Optional[float] = None
    rows: Optional[tuple] = None

    @property
    def response_time(self) -> Optional[float]:
        """Arrival to completion, simulated time (None until done)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def queue_wait(self) -> Optional[float]:
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at


@dataclass
class TenantReport:
    """Per-tenant slice of one serve run."""

    tenant: str
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def backlog(self) -> int:
        return self.submitted - self.completed - self.shed


@dataclass
class ServerReport:
    """What one ``serve``/``serve_trace`` call measured.

    Conservation invariant (the soak tests' anchor): every arrival is
    in exactly one terminal bucket, so ``submitted == completed +
    shed + backlog`` — with ``backlog`` the queries still queued or
    running when the run's time budget expired.

    ``goodput`` counts completions that finished *within the arrival
    horizon* per unit of simulated time — completions during the
    drain tail keep their latency samples but do not inflate
    throughput at the measured load point.
    """

    arrival_rate: Optional[float]
    horizon: float
    submitted: int
    admitted: int
    shed: int
    completed: int
    backlog: int
    goodput: float
    latency: LatencyStats
    tenants: Dict[str, TenantReport]
    shared_submissions: int
    solo_submissions: int
    launched_group_sizes: Tuple[int, ...]
    records: Tuple[ServedQuery, ...]

    @property
    def max_group_size(self) -> int:
        return max(self.launched_group_sizes, default=0)

    def render(self) -> str:
        """A compact aligned summary, one tenant per line."""
        lines = [
            f"arrivals {self.submitted} (rate="
            + (f"{self.arrival_rate:g}" if self.arrival_rate else "trace")
            + f", horizon={self.horizon:g})  admitted {self.admitted}"
            f"  shed {self.shed}  completed {self.completed}"
            f"  backlog {self.backlog}",
            f"goodput {self.goodput:.4g}/t  latency p50 {self.latency.p50:.4g}"
            f"  p99 {self.latency.p99:.4g}  max {self.latency.max:.4g}",
            f"groups: {self.shared_submissions} shared / "
            f"{self.solo_submissions} solo, largest {self.max_group_size}",
        ]
        for tenant in sorted(self.tenants):
            t = self.tenants[tenant]
            lines.append(
                f"  tenant {tenant:<12} submitted {t.submitted:>5}  "
                f"completed {t.completed:>5}  shed {t.shed:>4}  "
                f"p99 {t.latency.p99:.4g}"
            )
        return "\n".join(lines)


def poisson_arrivals(
    mix: WorkloadMix,
    queries: Dict[str, object],
    arrival_rate: float,
    horizon: float,
    seed: int = 0,
    tenant_weights: Optional[Dict[str, float]] = None,
) -> List[Arrival]:
    """A deterministic Poisson arrival trace.

    Inter-arrival gaps are ``-ln(1 - U) / arrival_rate`` from one
    seeded generator, and arrivals stop strictly before ``horizon``;
    query names come from ``mix``'s deterministic stream and resolve
    through ``queries``; tenants are drawn by weight from a second
    stream derived from the same seed.
    """
    if arrival_rate <= 0:
        raise EngineError(f"arrival_rate must be > 0, got {arrival_rate}")
    if horizon <= 0:
        raise EngineError(f"horizon must be > 0, got {horizon}")
    rng = random.Random(seed)
    names = mix.stream(client_id=seed)
    tenants: Optional[List[str]] = None
    weights: Optional[List[float]] = None
    tenant_rng: Optional[random.Random] = None
    if tenant_weights:
        tenants = sorted(tenant_weights)
        weights = [tenant_weights[t] for t in tenants]
        tenant_rng = random.Random(seed + 0x7E4A47)
    arrivals: List[Arrival] = []
    now = 0.0
    while True:
        now += -math.log(1.0 - rng.random()) / arrival_rate
        if now >= horizon:
            break
        name = next(names)
        query = queries[name]
        tenant = (
            tenant_rng.choices(tenants, weights=weights)[0]
            if tenants is not None and tenant_rng is not None
            else DEFAULT_TENANT
        )
        arrivals.append(Arrival(at=now, query=query, tenant=tenant))
    return arrivals


class Server:
    """A long-running open-system server over one :class:`Session`.

    Parameters
    ----------
    session:
        The session whose engine executes everything. Its simulated
        clock, cache state, and audit log persist across serve calls —
        a second ``serve`` starts against warm state.
    policy:
        Sharing policy for the session's coordinator (``AlwaysShare``,
        ``NeverShare``, ``ModelGuidedPolicy``, ...). ``None`` keeps
        the session's own — by default its built-in outlook-driven
        advisor, re-evaluated per prospective group against live
        resource state.
    admission:
        :class:`~repro.server.admission.AdmissionPolicy`; default
        bounds the waiting queue at 64 arrivals.
    max_inflight:
        Cap on concurrently *dispatched* queries; arrivals beyond it
        wait in the server's FIFO (and are recorded with outcome
        ``"queue"`` in the audit log). ``None`` dispatches on arrival.
    max_group_size:
        Set on the coordinator: oversized pending batches split into
        several concurrent groups.
    attach_inflight:
        Mid-flight attach (simultaneous pipelining). ``None`` enables
        it exactly when the session has cooperative scans configured.
    keep_rows:
        Retain each completed query's result rows on its
        :class:`ServedQuery` record (the soak tests' bit-identical
        check). Disable for long benchmark runs.
    """

    def __init__(
        self,
        session: Session,
        policy: Optional[SharingPolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
        max_inflight: Optional[int] = None,
        max_group_size: Optional[int] = None,
        attach_inflight: Optional[bool] = None,
        keep_rows: bool = True,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise PolicyError(f"max_inflight must be >= 1, got {max_inflight}")
        self.session = session
        self.admission = admission if admission is not None else QueueDepthBound(64)
        self.max_inflight = max_inflight
        self.keep_rows = keep_rows
        if attach_inflight is None:
            attach_inflight = session.scans is not None
        self.coordinator = session.coordinator
        if policy is not None:
            self.coordinator.policy = policy
        self.coordinator.max_group_size = max_group_size
        self.coordinator.attach_inflight = attach_inflight
        self._queue: deque = deque()
        self._inflight = 0
        self._service_ewma = 0.0
        self._ewma_alpha = 0.2
        # Lifetime counters (cumulative across serve calls) — these
        # back the ``server.*`` metric family.
        self.total_submitted = 0
        self.total_admitted = 0
        self.total_shed = 0
        self.total_completed = 0
        # The current run's arrivals, reset at the top of each _run;
        # its report is read off them when the run ends.
        self._records: List[ServedQuery] = []
        session.metrics().register_group(self._metric_family)

    # -- construction ------------------------------------------------------

    @classmethod
    def open(
        cls,
        catalog: Catalog,
        config: Union[RuntimeConfig, str, None] = None,
        policy: Optional[SharingPolicy] = None,
        **server_kwargs,
    ) -> "Server":
        """One-call entry point: open a fresh session and serve on it."""
        return cls(Database(catalog, config).session(), policy=policy, **server_kwargs)

    # -- observability -----------------------------------------------------

    @property
    def policy(self) -> Optional[SharingPolicy]:
        """The explicit sharing policy in force (``None`` = the
        session's built-in advisor)."""
        return self.coordinator.policy

    def _metric_family(self) -> Dict[str, float]:
        family = {
            "server.submitted": float(self.total_submitted),
            "server.admitted": float(self.total_admitted),
            "server.shed": float(self.total_shed),
            "server.completed": float(self.total_completed),
            "server.queue_depth": float(self._queue_depth()),
            "server.in_flight": float(self._inflight),
        }
        pool = self.session.pool
        if isinstance(pool, TenantPartitionedPool):
            for partition, resident in pool.tenant_residency().items():
                family[f"tenant.{partition}.resident"] = float(resident)
                family[f"tenant.{partition}.quota"] = float(
                    pool.quota_of(partition)
                )
        return family

    def _trace(self, name: str, **args) -> None:
        tracer = self.session.tracer
        if tracer is not None:
            tracer.instant(name, "server", tid=TID_SERVER, **args)

    # -- admission ---------------------------------------------------------

    def _queue_depth(self) -> int:
        return len(self._queue) + self.coordinator.queued_count()

    def view(self, tenant: str = DEFAULT_TENANT) -> AdmissionView:
        """The admission view an arrival would see right now."""
        depth = self._queue_depth()
        pending = self.coordinator.pending_count()
        running = max(0, self._inflight - pending)
        projected = (
            (depth + running + 1)
            * self._service_ewma
            / self.session.config.processors
        )
        return AdmissionView(
            queue_depth=depth,
            in_flight=running,
            projected_latency=projected,
            tenant=tenant,
        )

    # -- the serve loop ----------------------------------------------------

    def serve(
        self,
        mix: WorkloadMix,
        queries: Dict[str, object],
        arrival_rate: float,
        horizon: float,
        drain: float = 0.0,
        seed: int = 0,
        tenant_weights: Optional[Dict[str, float]] = None,
    ) -> ServerReport:
        """Run a seeded Poisson arrival stream for ``horizon`` of
        simulated time (plus ``drain`` with arrivals stopped), and
        report what happened."""
        arrivals = poisson_arrivals(
            mix,
            queries,
            arrival_rate,
            horizon,
            seed=seed,
            tenant_weights=tenant_weights,
        )
        return self._run(arrivals, horizon, drain, arrival_rate=arrival_rate)

    def serve_trace(
        self,
        arrivals: Sequence[Arrival],
        horizon: Optional[float] = None,
        drain: float = 0.0,
    ) -> ServerReport:
        """Run an explicit arrival trace. ``horizon`` defaults to just
        past the last arrival; the run stops at ``horizon + drain``."""
        arrivals = sorted(arrivals, key=lambda a: a.at)
        if horizon is None:
            horizon = arrivals[-1].at if arrivals else 0.0
        return self._run(list(arrivals), horizon, drain, arrival_rate=None)

    def _run(
        self,
        arrivals: List[Arrival],
        horizon: float,
        drain: float,
        arrival_rate: Optional[float],
    ) -> ServerReport:
        if drain < 0:
            raise EngineError(f"drain must be >= 0, got {drain}")
        session = self.session
        start = session.sim.now
        self._records = []
        shared_before = self.coordinator.shared_submissions
        solo_before = self.coordinator.solo_submissions
        groups_before = len(self.coordinator.launched_group_sizes)

        def arrival_process():
            for index, arrival in enumerate(arrivals):
                gap = (start + arrival.at) - session.sim.now
                if gap > 0:
                    yield Sleep(gap)
                self._on_arrival(arrival, index)

        session.sim.spawn(arrival_process(), name="server/arrivals")
        session.sim.run(until=start + horizon + drain)
        session.end_batch()

        latency = LatencyStats()
        tenants: Dict[str, TenantReport] = {}
        shed = completed = in_horizon = 0
        for record in self._records:
            tenant = tenants.get(record.tenant)
            if tenant is None:
                tenant = tenants[record.tenant] = TenantReport(record.tenant)
            tenant.submitted += 1
            if record.outcome == "shed":
                shed += 1
                tenant.shed += 1
            elif record.outcome == "completed":
                completed += 1
                tenant.completed += 1
                response = record.response_time
                latency.add(response)
                tenant.latency.add(response)
                if record.finished_at - start <= horizon:
                    in_horizon += 1
        submitted = len(self._records)
        return ServerReport(
            arrival_rate=arrival_rate,
            horizon=horizon,
            submitted=submitted,
            admitted=submitted - shed,
            shed=shed,
            completed=completed,
            backlog=submitted - shed - completed,
            goodput=in_horizon / max(horizon, 1e-12),
            latency=latency,
            tenants=tenants,
            shared_submissions=self.coordinator.shared_submissions - shared_before,
            solo_submissions=self.coordinator.solo_submissions - solo_before,
            launched_group_sizes=tuple(
                self.coordinator.launched_group_sizes[groups_before:]
            ),
            records=tuple(self._records),
        )

    # -- per-arrival path --------------------------------------------------

    def _on_arrival(self, arrival: Arrival, index: int) -> None:
        name = getattr(arrival.query, "name", "query")
        label = arrival.label or f"{arrival.tenant}/{name}#{index}"
        record = ServedQuery(
            label=label,
            name=name,
            tenant=arrival.tenant,
            submitted_at=self.session.sim.now,
        )
        self._records.append(record)
        self.total_submitted += 1
        self._trace("arrive", label=label, tenant=arrival.tenant)

        view = self.view(arrival.tenant)
        if not self.admission.admit(view):
            record.outcome = "shed"
            self.total_shed += 1
            self._audit_admission(name, "shed")
            self._trace(
                "shed",
                label=label,
                tenant=arrival.tenant,
                queue_depth=view.queue_depth,
            )
            return

        self.total_admitted += 1
        gated = (
            self.max_inflight is not None and self._inflight >= self.max_inflight
        )
        self._queue.append((record, arrival.query))
        if gated:
            self._audit_admission(name, "queue")
        self._dispatch()

    def _audit_admission(self, name: str, outcome: str) -> None:
        """The one ``source="server"`` record of a ``shed`` or ``queue``
        verdict; it launches nothing, so it is never joined."""
        self.session.audit_log().append(
            query=name,
            signature="",
            group_size=1,
            source="server",
            outcome=outcome,
            decided_at=self.session.sim.now,
        )

    def _dispatch(self) -> None:
        while self._queue and (
            self.max_inflight is None or self._inflight < self.max_inflight
        ):
            record, query = self._queue.popleft()
            record.admitted_at = self.session.sim.now
            self._inflight += 1
            self._trace("dispatch", label=record.label, tenant=record.tenant)
            self.coordinator.submit(
                query,
                record.label,
                on_complete=self._completion(record),
            )

    def _completion(
        self, record: ServedQuery
    ) -> Callable[[QueryHandle], None]:
        def on_done(handle: QueryHandle) -> None:
            now = self.session.sim.now
            record.finished_at = now
            record.outcome = "completed"
            if self.keep_rows:
                record.rows = tuple(handle.rows)
            self._inflight -= 1
            self.total_completed += 1
            service = now - (record.admitted_at or record.submitted_at)
            self._service_ewma = (
                service
                if self._service_ewma == 0.0
                else (1 - self._ewma_alpha) * self._service_ewma
                + self._ewma_alpha * service
            )
            self._trace(
                "complete",
                label=record.label,
                tenant=record.tenant,
                response=now - record.submitted_at,
            )
            self._dispatch()

        return on_done

    def __repr__(self) -> str:
        return (
            f"Server({self.session!r}, admission={self.admission!r}, "
            f"inflight={self._inflight}, queued={self._queue_depth()})"
        )
