"""Memory-governance experiments: spilling joins and I/O-aware sharing.

The paper's sharing model is CPU-only; this experiment exercises the
storage layer that PR adds (buffer pool + memory broker + spilling
hybrid hash join) along two axes the CPU model cannot see:

**Part A — graceful degradation under memory pressure.** One
build/probe hash join (orders ⋈ lineitem) runs under a sweep of
``work_mem`` budgets. As the budget shrinks the join spills more
partition pages (monotonically), pays ``spill_page``/``io_page`` for
the extra traffic, and *always* completes with the same answer — the
degradation is a slope, not a cliff.

**Part B — the sharing decision flips with cache temperature.** A
consolidation workload: ``m`` tenants run an identical scan+aggregate
query. Unshared, each tenant scans its *private* replica of the data
(private caches: no cross-tenant reuse — the model's unshared
baseline); shared, one scan of the common table feeds all tenants.
With a **warm** cache the scan is CPU-only and the pivot's per-consumer
output cost dominates — the model says *don't share* (the paper's
scan-serialization result). With a **cold** cache every unshared tenant
pays the full ``io_page`` bill, the shared pivot pays it once, and the
same model — its CPU profile adjusted by the session's live resource
outlook — says *share*. The decision flips on cache temperature alone;
measured makespans and buffer counters validate both verdicts. Since
the facade PR the whole experiment runs through ``repro.db``: the
query is fluent-built, the decision comes from ``Session.advise`` (no
hand-rolled profiling pass), and the measurement arms force their
routing with ``submit(share=...)``.

(When the unshared tenants instead scan the *same* table through one
shared buffer pool, their page-synchronized scans convoy: the first
toucher misses, the rest hit, and cold unshared execution costs about
the same as warm — implicit cooperative scanning. The experiment
reports this configuration too; explicit cooperative scans are a
ROADMAP follow-up.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.decision import ShareDecision
from repro.db import Database, RuntimeConfig
from repro.engine import AggSpec, CostModel, IO_AWARE_COST_MODEL, hash_join, scan
from repro.engine.expressions import col, lt, mul
from repro.experiments.common import (
    DEFAULT_SEED,
    nondecreasing,
    pick,
    replica_catalog,
    replica_names,
    shared_catalog,
)
from repro.experiments.report import block
from repro.obs.metrics import render_resources
from repro.storage import Catalog, DataType

__all__ = ["MemSweepPoint", "FlipConfig", "FigMemResult", "run", "DEFAULT_WORK_MEMS"]

DEFAULT_WORK_MEMS = (64, 32, 16, 8, 4, 2)
SWEEP_CONFIG = RuntimeConfig(pool_pages=128, cost_model=IO_AWARE_COST_MODEL)
# The pool is large enough for every tenant replica to stay resident
# when warm (16 tenants x ~94 pages); cold runs start empty either
# way. Cold-storage calibration for this experiment: fetching one page
# costs a few times the CPU work of scanning it — enough that a cold
# scan is I/O-bound, as on a disk-resident warehouse.
FLIP_CONFIG = RuntimeConfig(pool_pages=2048, cost_model=CostModel(io_page=400.0, spill_page=500.0))


# ----------------------------------------------------------------------
# Part A: work_mem sweep over the spilling hybrid hash join
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MemSweepPoint:
    """One ``work_mem`` setting of the join sweep."""

    work_mem: int
    makespan: float
    spill_pages_written: int
    spill_pages_read: int
    buffer_hit_rate: float
    mem_high_water: int
    overcommits: int
    rows_out: int


def _sweep_join_plan(catalog: Catalog):
    build = scan(catalog, "orders", columns=["o_orderkey"], op_id="sweep_build")
    probe = scan(
        catalog, "lineitem", columns=["l_orderkey", "l_extendedprice"], op_id="sweep_probe"
    )
    return hash_join(
        build,
        probe,
        build_key="o_orderkey",
        probe_key="l_orderkey",
        join_type="inner",
        op_id="sweep_join",
    )


def sweep_work_mem(
    catalog: Catalog, work_mems: Sequence[int], processors: int
) -> tuple[MemSweepPoint, ...]:
    """Run the join once per budget; every run must agree on rows."""
    plan = _sweep_join_plan(catalog)
    points = []
    for work_mem in work_mems:
        config = SWEEP_CONFIG.with_(work_mem=work_mem, processors=processors)
        result = Database.open(catalog, config).run(plan, label=f"sweep@{work_mem}")
        metrics = result.metrics
        points.append(
            MemSweepPoint(
                work_mem=work_mem,
                makespan=result.makespan,
                spill_pages_written=metrics["spill.pages_written"],
                spill_pages_read=metrics["spill.pages_read"],
                buffer_hit_rate=metrics["buffer.hit_rate"],
                mem_high_water=metrics["memory.high_water"],
                overcommits=metrics["memory.overcommits"],
                rows_out=len(result.rows),
            )
        )
    return tuple(points)


# ----------------------------------------------------------------------
# Part B: cold/warm sharing-decision flip
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlipConfig:
    """One cache-temperature configuration of the flip experiment."""

    name: str
    decision: ShareDecision
    makespan_unshared: float
    makespan_shared: float
    unshared_metrics: dict
    shared_metrics: dict

    @property
    def measured_benefit(self) -> float:
        return self.makespan_unshared / self.makespan_shared


FLIP_TABLE = "tenantdata"
FLIP_ROWS = 6000
FLIP_SELECTIVITY = 0.25


def flip_query(session, table_name: str):
    """Fused scan (moderate selectivity, two outputs) + tiny aggregate.

    Built through the session's fluent builder; the fused scan is the
    default sharing pivot, exactly as the hand-built plan designated.
    """
    return (
        session.table(table_name, columns=["k", "v"])
        .where(lt(col("v"), FLIP_SELECTIVITY))
        .select(("k", col("k"), DataType.INT), ("vv", mul(col("v"), col("v")), DataType.FLOAT))
        .agg(AggSpec("sum", "total", col("vv")), AggSpec("count", "n"))
        .named(f"flip:{table_name}")
        .build()
    )


def _measure_flip(
    catalog: Catalog, config: RuntimeConfig, tenants: int, name: str, decision: ShareDecision
) -> FlipConfig:
    """Configuration ``name`` with the advisor's ``decision``: measured
    makespans (unshared-private-replicas, shared-common) and each run's
    metrics snapshot."""
    warm = name == "warm"

    def open_session(warm_tables):
        session = Database.open(catalog, config)
        if warm:
            session.prewarm(*warm_tables)
        return session

    # Unshared: tenant t scans its private replica — a private cache,
    # exactly the no-cross-query-reuse baseline the model assumes.
    replicas = replica_names(FLIP_TABLE, tenants)
    session = open_session(replicas)
    for t, replica in enumerate(replicas):
        session.submit(flip_query(session, replica), label=f"tenant{t}", share=False)
    unshared_metrics = session.run_all()[-1].metrics
    unshared_makespan = session.now

    # Shared: one scan of the common table feeds every tenant.
    session = open_session([FLIP_TABLE])
    query = flip_query(session, FLIP_TABLE)
    for t in range(tenants):
        session.submit(query, label=f"tenant{t}", share=True)
    shared_metrics = session.run_all()[-1].metrics
    return FlipConfig(
        name=name,
        decision=decision,
        makespan_unshared=unshared_makespan,
        makespan_shared=session.now,
        unshared_metrics=unshared_metrics,
        shared_metrics=shared_metrics,
    )


def run_flip(tenants: int, processors: int) -> tuple[FlipConfig, ...]:
    """Decide (via the session's live advisor) and measure, cold and
    warm: the facade's automatic decision replaces the hand-rolled
    profile-then-advise pass the pre-facade driver carried."""
    catalog = replica_catalog(FLIP_TABLE, FLIP_ROWS, tenants, DEFAULT_SEED)
    config = FLIP_CONFIG.with_(processors=processors)

    configs = []
    for name in ("cold", "warm"):
        session = Database.open(catalog, config)
        if name == "warm":
            session.prewarm(FLIP_TABLE)
        decision = session.advise(flip_query(session, FLIP_TABLE), tenants)
        configs.append(_measure_flip(catalog, config, tenants, name, decision))
    return tuple(configs)


# ----------------------------------------------------------------------
# The figure
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FigMemResult:
    sweep: tuple[MemSweepPoint, ...]
    flips: tuple[FlipConfig, ...]
    tenants: int
    processors: int

    def flip(self, name: str) -> FlipConfig:
        return pick(self.flips, name=name)

    def spill_is_monotone(self) -> bool:
        """Spilled pages never decrease as ``work_mem`` shrinks."""
        ordered = sorted(self.sweep, key=lambda p: p.work_mem, reverse=True)
        return nondecreasing([p.spill_pages_written for p in ordered])

    def answers_agree(self) -> bool:
        return len({p.rows_out for p in self.sweep}) == 1

    def decision_flipped(self) -> bool:
        return self.flip("cold").decision.share and not self.flip("warm").decision.share

    def render(self) -> str:
        columns = [
            ("work_mem", lambda p: p.work_mem),
            ("makespan", lambda p: f"{p.makespan:.0f}"),
            ("spill written", lambda p: p.spill_pages_written),
            ("spill read", lambda p: p.spill_pages_read),
            ("hit rate", lambda p: f"{p.buffer_hit_rate:.0%}"),
            ("mem high-water", lambda p: p.mem_high_water),
            ("overcommits", lambda p: p.overcommits),
        ]
        claims = [
            ("identical answers across budgets", self.answers_agree()),
            ("spill growth monotone", self.spill_is_monotone()),
        ]
        title = "Memory governance — spilling hybrid hash join, work_mem sweep"
        blocks = [block(title, columns, self.sweep, claims)]

        lines = [
            f"Sharing decision vs cache temperature "
            f"({self.tenants} tenants on {self.processors} processors)"
        ]
        for config in self.flips:
            d = config.decision
            lines.append(
                f"  {config.name:>4}: model says "
                f"{'SHARE' if d.share else 'DO NOT SHARE'} "
                f"(predicted Z={d.benefit:.2f}); measured "
                f"unshared/shared = {config.measured_benefit:.2f} "
                f"(unshared {config.makespan_unshared:.0f}, "
                f"shared {config.makespan_shared:.0f})"
            )
            # The flip sessions wire a pool only: its line comes first.
            for side, metrics in (
                ("unshared", config.unshared_metrics),
                ("shared  ", config.shared_metrics),
            ):
                lines.append(f"        {side} " + render_resources(metrics).splitlines()[0])
        lines.append(f"  decision flipped cold->warm: {self.decision_flipped()}")
        blocks.append("\n".join(lines))
        return "\n\n".join(blocks)


# ``repro experiments fig_mem --quick``.
QUICK = {"work_mems": (16, 4), "tenants": 8, "processors": 4}


def run(
    work_mems: Sequence[int] = DEFAULT_WORK_MEMS, tenants: int = 16, processors: int = 8
) -> FigMemResult:
    sweep = sweep_work_mem(shared_catalog(), work_mems, processors)
    flips = run_flip(tenants, processors)
    return FigMemResult(sweep=sweep, flips=flips, tenants=tenants, processors=processors)
