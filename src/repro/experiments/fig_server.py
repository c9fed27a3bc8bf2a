"""fig_server: open-system sharing — win, straggler factory, and the
load point where one flips into the other.

Every closed-system figure (1, 2, 6) asks "does sharing help a fixed
batch?"; this experiment asks the deployed-system version: a
:class:`~repro.server.Server` takes a seeded Poisson stream of Q6
arrivals at rate ``r × (1/S)`` (``S`` = one query's solo service
time), with queue-depth admission control, under three sharing
policies — always, never, and model-guided — on two machines (2 and 8
processors). Reported per cell: goodput (completions within the
arrival horizon per unit time), p50/p99 response time, and sheds.

The shapes the paper predicts, translated to the load axis:

* **Light load, any machine**: sharing is a *straggler factory* —
  always-share convoys same-operation arrivals behind in-flight
  groups, inflating p99 well above never-share's, while goodput is
  identical (an open system's throughput is the arrival rate whenever
  stable). Sharing buys nothing and costs tail latency.
* **Overload, few cores**: the flip. Pivot multiplexing collapses the
  pending queue's CPU into one pass, so always-share *raises
  sustainable goodput* past never-share — which, launching everything
  solo, thrashes the two contexts and collapses. Here sharing wins
  goodput *and* tail latency simultaneously.
* **Overload, many cores**: no flip. Eight contexts absorb the same
  offered load solo (goodput tracks arrivals); always-share still
  convoys and caps goodput at roughly the 2-core figure — sharing is
  a straggler factory at *every* load point on an amply parallel
  machine, the Figure 2 collapse restated in open-system terms.
* **The model arm** decides per prospective group size and tracks the
  winning envelope: never-share's latency at light load, the sharing
  capacity win under few-core overload — it *finds* the crossover
  without being told the load.

``crossover_rate`` reports the measured flip point: the smallest
swept rate at which always-share's goodput beats never-share's by
more than 10%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.db import Database, RuntimeConfig
from repro.experiments.common import DEFAULT_SEED, pick, shared_catalog
from repro.experiments.report import block
from repro.policies import AlwaysShare, ModelGuidedPolicy, NeverShare
from repro.profiling import QueryProfiler
from repro.server import QueueDepthBound, Server
from repro.tpch.queries import build
from repro.workload import WorkloadMix

__all__ = [
    "ServerCell",
    "FigServerResult",
    "run",
    "DEFAULT_RATE_MULTIPLES",
    "DEFAULT_PROCESSOR_COUNTS",
]

# Arrival rates in multiples of 1/S (S = solo service time): from half
# the single-server capacity to deep overload.
DEFAULT_RATE_MULTIPLES = (0.5, 1.0, 2.0, 4.0, 8.0)
DEFAULT_PROCESSOR_COUNTS = (2, 8)
# The open-system experiments run at a smaller scale than the closed
# ones: a cell submits hundreds of arrivals, not twenty clients.
SERVER_SCALE_FACTOR = 0.0005
QUEUE_BOUND = 32
GOODPUT_FLIP_MARGIN = 1.10
# After the arrival horizon, in-flight work drains for this many S.
DRAIN_SERVICES = 20.0
# The Poisson arrival stream's seed: every policy faces the same one.
ARRIVAL_SEED = 5
POLICIES = ("always", "model", "never")


@dataclass(frozen=True)
class ServerCell:
    """One (policy, machine, rate) measurement."""

    policy: str
    processors: int
    rate_multiple: float
    goodput: float  # completions-in-horizon per service time S
    p50: float  # response-time quantiles in units of S
    p99: float
    submitted: int
    completed: int
    shed: int
    max_group_size: int


@dataclass(frozen=True)
class FigServerResult:
    cells: tuple[ServerCell, ...]
    service_time: float
    rate_multiples: tuple[float, ...]
    processor_counts: tuple[int, ...]

    def cell(self, policy: str, processors: int, rate_multiple: float) -> ServerCell:
        return pick(self.cells, policy=policy, processors=processors, rate_multiple=rate_multiple)

    def crossover_rate(self, processors: int) -> Optional[float]:
        """The smallest swept rate where always-share's goodput beats
        never-share's by more than the flip margin — the measured
        load point where sharing turns from straggler factory to win.
        ``None`` when sharing never wins on this machine."""
        for rate in self.rate_multiples:
            always = self.cell("always", processors, rate)
            never = self.cell("never", processors, rate)
            if never.goodput > 0 and always.goodput > GOODPUT_FLIP_MARGIN * never.goodput:
                return rate
        return None

    def render(self) -> str:
        columns = [
            ("rate (1/S)", lambda c: f"{c.rate_multiple:g}"),
            ("policy", lambda c: c.policy),
            ("goodput (1/S)", lambda c: f"{c.goodput:.2f}"),
            ("p50 (S)", lambda c: f"{c.p50:.2f}"),
            ("p99 (S)", lambda c: f"{c.p99:.2f}"),
            ("shed", lambda c: f"{c.shed}/{c.submitted}"),
            ("max group", lambda c: c.max_group_size),
        ]
        blocks = []
        for n in self.processor_counts:
            cells = [self.cell(p, n, rate) for rate in self.rate_multiples for p in POLICIES]
            crossover = self.crossover_rate(n)
            verdict = (
                f"sharing wins goodput from rate {crossover:g}/S"
                if crossover is not None
                else "sharing never wins goodput on this machine"
            )
            title = (
                f"fig_server — open-system serving on {n} processors "
                f"(S = {self.service_time:g} sim units)"
            )
            blocks.append(f"{block(title, columns, cells)}\n  {verdict}")
        return "\n\n".join(blocks)


def _solo_service_time(catalog, query, processors: int) -> float:
    """One query's solo makespan on an otherwise idle machine."""
    session = Database(catalog, RuntimeConfig(processors=processors)).session()
    result = session.run(query, label="calibrate", share=False)
    return result.finished_at - result.submitted_at


# ``repro experiments fig_server --quick`` keeps the corner rates: the
# straggler-factory claim (light load) and the few-core sharing win
# (overload) both live at the extremes of the rate axis.
QUICK = {"rate_multiples": (1.0, 4.0, 8.0), "horizon_services": 40.0}


def run(
    rate_multiples: Sequence[float] = DEFAULT_RATE_MULTIPLES,
    horizon_services: float = 60.0,
) -> FigServerResult:
    catalog = shared_catalog(SERVER_SCALE_FACTOR, DEFAULT_SEED)
    query = build("q6", catalog)
    queries = {"q6": query}
    mix = WorkloadMix.single("q6")

    profiler = QueryProfiler(catalog)
    profile = profiler.profile(query.plan, query.pivot, label="q6")
    specs = {"q6": (profile.to_query_spec(), query.pivot)}

    # Calibrate S on the smaller machine; rates are multiples of 1/S.
    service = _solo_service_time(catalog, query, min(DEFAULT_PROCESSOR_COUNTS))
    horizon = horizon_services * service
    drain = DRAIN_SERVICES * service

    cells: list[ServerCell] = []
    for processors in DEFAULT_PROCESSOR_COUNTS:
        config = RuntimeConfig(processors=processors)
        for rate_multiple in rate_multiples:
            rate = rate_multiple / service
            for policy_name, policy in (
                ("always", AlwaysShare()),
                ("model", ModelGuidedPolicy(specs)),
                ("never", NeverShare()),
            ):
                server = Server.open(
                    catalog,
                    config,
                    policy=policy,
                    admission=QueueDepthBound(QUEUE_BOUND),
                    attach_inflight=False,
                    keep_rows=False,
                )
                report = server.serve(
                    mix,
                    queries,
                    arrival_rate=rate,
                    horizon=horizon,
                    drain=drain,
                    seed=ARRIVAL_SEED,
                )
                cells.append(
                    ServerCell(
                        policy=policy_name,
                        processors=processors,
                        rate_multiple=rate_multiple,
                        goodput=report.goodput * service,
                        p50=report.latency.p50 / service,
                        p99=report.latency.p99 / service,
                        submitted=report.submitted,
                        completed=report.completed,
                        shed=report.shed,
                        max_group_size=report.max_group_size,
                    )
                )
    return FigServerResult(
        cells=tuple(cells),
        service_time=service,
        rate_multiples=tuple(rate_multiples),
        processor_counts=DEFAULT_PROCESSOR_COUNTS,
    )
