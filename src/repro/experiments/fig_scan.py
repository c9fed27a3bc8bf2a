"""Cooperative scan sharing: one physical pass serves N scans.

The paper's pivot-sharing machinery merges queries *at submission*;
``fig_mem`` showed that once a buffer pool is attached, even unshared
identical scans convoy through it. This experiment exercises the
subsystem that makes the effect explicit and robust — the
:class:`~repro.storage.shared_scan.ScanShareManager`'s elevator
cursors — along three axes:

**Part A — attach sharing.** ``m`` identical scans of one table
arrive staggered in time. Independently (each scanning a private,
byte-identical replica: a private cold cache), they pay ``m`` full
passes of ``io_page``. Cooperatively, each arrival attaches to the
table's elevator cursor at its current position and wraps around, so
all ``m`` scans complete with ~one table's worth of physical reads —
and every consumer's row *set* is identical to its independent scan's
(the order rotates to the attach offset).

**Part B — async prefetch.** A single cold scan under increasing
prefetch depth: read-ahead overlaps the next pages' I/O with this
page's CPU work, so any depth > 0 strictly beats depth 0 (the
sequential-disk model saturates once the pipeline is covered).

**Part C — scan-aware eviction.** A table larger than the pool,
scanned twice. Under LRU the first pass flushes exactly the pages the
second pass needs first (zero reuse); the ``"scan"`` policy detects
the oversized footprint, switches that table to MRU victims, and the
second pass hits on the preserved prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.db import Database, RuntimeConfig, Session
from repro.engine import CostModel
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.report import format_table
from repro.obs.metrics import render_resources
from repro.storage import Catalog, DataType, Schema
from repro.storage.page import DEFAULT_PAGE_ROWS

__all__ = [
    "SharePoint",
    "PrefetchPoint",
    "EvictionPoint",
    "FigScanResult",
    "run",
    "DEFAULT_CONSUMERS",
    "DEFAULT_STAGGERS",
    "DEFAULT_PREFETCH_DEPTHS",
]

SCAN_TABLE = "scanstream"
SCAN_ROWS = 6000
# Cold-storage calibration (as in fig_mem's flip): fetching a page
# costs a few times the CPU work of scanning it.
SCAN_COSTS = CostModel(io_page=400.0)
DEFAULT_CONSUMERS = (2, 4, 8)
# Arrival stagger as a fraction of one solo cold-scan makespan.
DEFAULT_STAGGERS = (0.0, 0.25, 0.75)
DEFAULT_PREFETCH_DEPTHS = (0, 1, 2, 4, 8)


def _scan_catalog(base_rows: int, replicas: int, seed: int) -> Catalog:
    """One common table plus byte-identical per-consumer replicas."""
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    rows = []
    state = seed & 0x7FFFFFFF or 1
    for i in range(base_rows):
        # Park-Miller LCG: deterministic, independent of PYTHONHASHSEED.
        state = (state * 48271) % 2147483647
        rows.append((i, state / 2147483647.0))
    for name in [SCAN_TABLE] + [f"{SCAN_TABLE}__{t}" for t in range(replicas)]:
        catalog.create(name, schema).insert_many(rows)
    return catalog


def _staggered_scans(
    session: Session,
    table_names: Sequence[str],
    stagger: float,
) -> list:
    """Submit one scan per table name, the i-th delayed by i*stagger.

    Submissions are forced solo (``share=False``): this figure is
    about sharing at the *storage* layer (the elevator cursor), not
    about pivot-merging the queries. Returns the per-query results.
    """
    for i, name in enumerate(table_names):
        session.submit(session.table(name, columns=["k", "v"]),
                       label=f"c{i}", share=False, delay=i * stagger)
    return session.run_all()


def _solo_cold_makespan(catalog: Catalog, pages: int, processors: int) -> float:
    """One cold scan, no manager — the stagger unit of Part A."""
    session = Database.open(catalog, RuntimeConfig(
        pool_pages=pages * 2, processors=processors, cost_model=SCAN_COSTS,
    ))
    return session.run(session.table(SCAN_TABLE, columns=["k", "v"])).makespan


# ----------------------------------------------------------------------
# Part A: attach sharing under arrival stagger
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SharePoint:
    """One (consumers, stagger) cell of the sharing sweep."""

    consumers: int
    stagger_fraction: float
    table_pages: int
    cooperative_reads: int
    independent_reads: int
    makespan_cooperative: float
    makespan_independent: float
    identical_answers: bool
    max_attach_depth: int
    pages_per_read: float

    @property
    def io_ratio(self) -> float:
        """Cooperative physical reads over one table's pages."""
        return self.cooperative_reads / self.table_pages


def _measure_share_point(
    catalog: Catalog,
    consumers: int,
    stagger: float,
    stagger_fraction: float,
    processors: int,
    page_rows: int,
    prefetch_depth: int,
    reference_rows: list,
) -> tuple[SharePoint, dict]:
    pages = catalog.table(SCAN_TABLE).page_count(page_rows)

    # Cooperative: every consumer scans the common table through one
    # elevator cursor.
    session = Database.open(catalog, RuntimeConfig(
        pool_pages=pages * 2, prefetch_depth=prefetch_depth,
        page_rows=page_rows, processors=processors, cost_model=SCAN_COSTS,
    ))
    results = _staggered_scans(session, [SCAN_TABLE] * consumers, stagger)
    coop_makespan = session.now
    metrics = results[0].metrics
    reads = metrics[f"scan.{SCAN_TABLE}.physical_reads"]
    identical = len(results) == consumers and all(
        sorted(result.rows) == reference_rows for result in results
    )

    # Independent: consumer t scans its private replica — a private
    # cold cache, the model's no-cross-query-reuse baseline.
    replica_names = [f"{SCAN_TABLE}__{t}" for t in range(consumers)]
    session = Database.open(catalog, RuntimeConfig(
        pool_pages=pages * (consumers + 1), page_rows=page_rows,
        processors=processors, cost_model=SCAN_COSTS,
    ))
    _staggered_scans(session, replica_names, stagger)

    point = SharePoint(
        consumers=consumers,
        stagger_fraction=stagger_fraction,
        table_pages=pages,
        cooperative_reads=reads,
        independent_reads=session.pool.stats.misses,
        makespan_cooperative=coop_makespan,
        makespan_independent=session.now,
        identical_answers=identical,
        max_attach_depth=metrics[f"scan.{SCAN_TABLE}.max_attach_depth"],
        pages_per_read=metrics[f"scan.{SCAN_TABLE}.pages_served"] / reads,
    )
    return point, metrics


# ----------------------------------------------------------------------
# Part B: prefetch depth on a single cold scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PrefetchPoint:
    """One prefetch depth of the cold-scan sweep."""

    depth: int
    makespan: float
    io_stall_cost: float
    io_overlapped_cost: float
    scan_io_share: float


def _measure_prefetch(
    catalog: Catalog,
    depth: int,
    processors: int,
    page_rows: int,
) -> PrefetchPoint:
    pages = catalog.table(SCAN_TABLE).page_count(page_rows)
    session = Database.open(catalog, RuntimeConfig(
        pool_pages=pages * 2, prefetch_depth=depth, page_rows=page_rows,
        processors=processors, cost_model=SCAN_COSTS,
    ))
    query = session.table(SCAN_TABLE, columns=["k", "v"]).build()
    result = session.run(query, label=f"prefetch@{depth}")
    scan_op = query.plan.op_id
    metrics = result.metrics
    return PrefetchPoint(
        depth=depth,
        makespan=result.makespan,
        io_stall_cost=metrics[f"scan.{SCAN_TABLE}.io_stall"],
        io_overlapped_cost=metrics[f"scan.{SCAN_TABLE}.io_overlapped"],
        scan_io_share=metrics[f"stage.{scan_op}.io"] / metrics[f"stage.{scan_op}.busy"],
    )


# ----------------------------------------------------------------------
# Part C: scan-aware eviction on a table larger than the pool
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EvictionPoint:
    """Two passes over an oversized table under one eviction policy."""

    policy: str
    pool_pages: int
    table_pages: int
    second_pass_hits: int
    hit_rate: float


def _measure_eviction(
    catalog: Catalog,
    policy: str,
    processors: int,
    page_rows: int,
) -> EvictionPoint:
    pages = catalog.table(SCAN_TABLE).page_count(page_rows)
    pool_pages = max(2, pages // 2)
    session = Database.open(catalog, RuntimeConfig(
        pool_pages=pool_pages, pool_policy=policy, prefetch_depth=0,
        page_rows=page_rows, processors=processors, cost_model=SCAN_COSTS,
    ))
    query = session.table(SCAN_TABLE, columns=["k", "v"]).build()
    session.run(query, label="pass1")
    first_pass_hits = session.pool.stats.hits
    session.run(query, label="pass2")
    return EvictionPoint(
        policy=policy,
        pool_pages=pool_pages,
        table_pages=pages,
        second_pass_hits=session.pool.stats.hits - first_pass_hits,
        hit_rate=session.pool.stats.hit_rate,
    )


# ----------------------------------------------------------------------
# The figure
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FigScanResult:
    share: tuple[SharePoint, ...]
    prefetch: tuple[PrefetchPoint, ...]
    eviction: tuple[EvictionPoint, ...]
    # The metrics snapshot of the last sweep cell's cooperative session.
    metrics: dict
    processors: int

    def io_ratio_ok(self, bound: float = 1.2) -> bool:
        """Every cooperative sweep cell pays <= bound table passes."""
        return all(p.io_ratio <= bound for p in self.share)

    def answers_identical(self) -> bool:
        return all(p.identical_answers for p in self.share)

    def independent_pays_n_passes(self) -> bool:
        return all(
            p.independent_reads == p.consumers * p.table_pages
            for p in self.share
        )

    def prefetch_strictly_helps(self) -> bool:
        """Any prefetch depth > 0 strictly beats depth 0 (False when
        the sweep lacks the depth-0 baseline or any deeper point)."""
        base = next((p for p in self.prefetch if p.depth == 0), None)
        rest = [p for p in self.prefetch if p.depth > 0]
        if base is None or not rest:
            return False
        return all(p.makespan < base.makespan for p in rest)

    def eviction_point(self, policy: str) -> EvictionPoint:
        for point in self.eviction:
            if point.policy == policy:
                return point
        raise KeyError(policy)

    def scan_aware_eviction_wins(self) -> bool:
        return (self.eviction_point("scan").second_pass_hits
                > self.eviction_point("lru").second_pass_hits)

    def render(self) -> str:
        headers = ["m", "stagger", "coop reads", "indep reads",
                   "io ratio", "attach depth", "pages/read",
                   "coop makespan", "indep makespan", "identical"]
        rows = [
            [p.consumers, f"{p.stagger_fraction:.2f}", p.cooperative_reads,
             p.independent_reads, f"{p.io_ratio:.2f}x", p.max_attach_depth,
             f"{p.pages_per_read:.2f}", f"{p.makespan_cooperative:.0f}",
             f"{p.makespan_independent:.0f}",
             "yes" if p.identical_answers else "NO"]
            for p in self.share
        ]
        blocks = [
            "Cooperative scans — N staggered consumers, one elevator pass\n"
            + format_table(headers, rows)
            + f"\n  io ratio <= 1.2 everywhere: {self.io_ratio_ok()};"
            f"  answers identical: {self.answers_identical()}"
        ]

        headers = ["prefetch k", "makespan", "io stall", "io overlapped",
                   "scan io share"]
        rows = [
            [p.depth, f"{p.makespan:.0f}", f"{p.io_stall_cost:.0f}",
             f"{p.io_overlapped_cost:.0f}", f"{p.scan_io_share:.0%}"]
            for p in self.prefetch
        ]
        blocks.append(
            "Async prefetch — single cold scan\n"
            + format_table(headers, rows)
            + f"\n  prefetch > 0 strictly reduces makespan: "
            f"{self.prefetch_strictly_helps()}"
        )

        headers = ["policy", "pool/table pages", "2nd-pass hits", "hit rate"]
        rows = [
            [p.policy, f"{p.pool_pages}/{p.table_pages}",
             p.second_pass_hits, f"{p.hit_rate:.0%}"]
            for p in self.eviction
        ]
        blocks.append(
            "Scan-aware eviction — two passes over an oversized table\n"
            + format_table(headers, rows)
            + f"\n  scan-aware beats LRU on reuse: "
            f"{self.scan_aware_eviction_wins()}"
        )
        blocks.append("Resources (last sweep cell):\n"
                      + render_resources(self.metrics))
        return "\n\n".join(blocks)


# ``repro experiments fig_scan --quick``.
QUICK = {"consumers": (2, 4), "staggers": (0.0, 0.5), "prefetch_depths": (0, 2)}


def run(
    consumers: Sequence[int] = DEFAULT_CONSUMERS,
    staggers: Sequence[float] = DEFAULT_STAGGERS,
    prefetch_depths: Sequence[int] = DEFAULT_PREFETCH_DEPTHS,
    processors: int = 8,
    base_rows: int = SCAN_ROWS,
    page_rows: int = DEFAULT_PAGE_ROWS,
    sweep_prefetch_depth: int = 2,
    seed: int = DEFAULT_SEED,
) -> FigScanResult:
    catalog = _scan_catalog(base_rows, max(consumers), seed)
    pages = catalog.table(SCAN_TABLE).page_count(page_rows)
    solo = _solo_cold_makespan(catalog, pages, processors)
    reference_rows = sorted(catalog.table(SCAN_TABLE).rows())

    share = []
    last_metrics = None
    for m in consumers:
        for fraction in staggers:
            point, last_metrics = _measure_share_point(
                catalog, m, fraction * solo, fraction, processors,
                page_rows, sweep_prefetch_depth, reference_rows,
            )
            share.append(point)
    prefetch = tuple(
        _measure_prefetch(catalog, depth, processors, page_rows)
        for depth in prefetch_depths
    )
    eviction = tuple(
        _measure_eviction(catalog, policy, processors, page_rows)
        for policy in ("lru", "scan")
    )
    return FigScanResult(
        share=tuple(share),
        prefetch=prefetch,
        eviction=eviction,
        metrics=last_metrics,
        processors=processors,
    )
