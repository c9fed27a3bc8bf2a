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
from repro.experiments.common import (
    DEFAULT_SEED,
    beats_depth_zero,
    pick,
    replica_catalog,
    replica_names,
)
from repro.experiments.report import block
from repro.obs.metrics import render_resources
from repro.storage import Catalog

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
SCAN_CONFIG = RuntimeConfig(processors=8, cost_model=CostModel(io_page=400.0))
# The elevator read-ahead of Part A's cooperative sessions.
SWEEP_PREFETCH_DEPTH = 2
DEFAULT_CONSUMERS = (2, 4, 8)
# Arrival stagger as a fraction of one solo cold-scan makespan.
DEFAULT_STAGGERS = (0.0, 0.25, 0.75)
DEFAULT_PREFETCH_DEPTHS = (0, 1, 2, 4, 8)


def _staggered_scans(session: Session, table_names: Sequence[str], stagger: float) -> list:
    """Submit one scan per table name, the i-th delayed by i*stagger.

    Submissions are forced solo (``share=False``): this figure is
    about sharing at the *storage* layer (the elevator cursor), not
    about pivot-merging the queries. Returns the per-query results.
    """
    for i, name in enumerate(table_names):
        session.submit(
            session.table(name, columns=["k", "v"]), label=f"c{i}", share=False, delay=i * stagger
        )
    return session.run_all()


def _solo_cold_makespan(catalog: Catalog, pages: int) -> float:
    """One cold scan, no manager — the stagger unit of Part A."""
    session = Database.open(catalog, SCAN_CONFIG.with_(pool_pages=pages * 2))
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
    pages: int,
    consumers: int,
    stagger: float,
    stagger_fraction: float,
    reference_rows: list,
) -> tuple[SharePoint, dict]:
    # Cooperative: every consumer scans the common table through one
    # elevator cursor.
    config = SCAN_CONFIG.with_(pool_pages=pages * 2, prefetch_depth=SWEEP_PREFETCH_DEPTH)
    session = Database.open(catalog, config)
    results = _staggered_scans(session, [SCAN_TABLE] * consumers, stagger)
    coop_makespan = session.now
    metrics = results[0].metrics
    reads = metrics[f"scan.{SCAN_TABLE}.physical_reads"]
    identical = len(results) == consumers and all(
        sorted(result.rows) == reference_rows for result in results
    )

    # Independent: consumer t scans its private replica — a private
    # cold cache, the model's no-cross-query-reuse baseline.
    session = Database.open(catalog, SCAN_CONFIG.with_(pool_pages=pages * (consumers + 1)))
    _staggered_scans(session, replica_names(SCAN_TABLE, consumers), stagger)

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


def _measure_prefetch(catalog: Catalog, pages: int, depth: int) -> PrefetchPoint:
    config = SCAN_CONFIG.with_(pool_pages=pages * 2, prefetch_depth=depth)
    session = Database.open(catalog, config)
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


def _measure_eviction(catalog: Catalog, pages: int, policy: str) -> EvictionPoint:
    pool_pages = max(2, pages // 2)
    config = SCAN_CONFIG.with_(pool_pages=pool_pages, pool_policy=policy, prefetch_depth=0)
    session = Database.open(catalog, config)
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

    def io_ratio_ok(self, bound: float = 1.2) -> bool:
        """Every cooperative sweep cell pays <= bound table passes."""
        return all(p.io_ratio <= bound for p in self.share)

    def answers_identical(self) -> bool:
        return all(p.identical_answers for p in self.share)

    def independent_pays_n_passes(self) -> bool:
        return all(p.independent_reads == p.consumers * p.table_pages for p in self.share)

    def prefetch_strictly_helps(self) -> bool:
        """Any prefetch depth > 0 strictly beats depth 0 (False when
        the sweep lacks the depth-0 baseline or any deeper point)."""
        return beats_depth_zero(self.prefetch, "makespan")

    def eviction_point(self, policy: str) -> EvictionPoint:
        return pick(self.eviction, policy=policy)

    def scan_aware_eviction_wins(self) -> bool:
        return (
            self.eviction_point("scan").second_pass_hits
            > self.eviction_point("lru").second_pass_hits
        )

    def render(self) -> str:
        share_columns = [
            ("m", lambda p: p.consumers),
            ("stagger", lambda p: f"{p.stagger_fraction:.2f}"),
            ("coop reads", lambda p: p.cooperative_reads),
            ("indep reads", lambda p: p.independent_reads),
            ("io ratio", lambda p: f"{p.io_ratio:.2f}x"),
            ("attach depth", lambda p: p.max_attach_depth),
            ("pages/read", lambda p: f"{p.pages_per_read:.2f}"),
            ("coop makespan", lambda p: f"{p.makespan_cooperative:.0f}"),
            ("indep makespan", lambda p: f"{p.makespan_independent:.0f}"),
            ("identical", lambda p: "yes" if p.identical_answers else "NO"),
        ]
        prefetch_columns = [
            ("prefetch k", lambda p: p.depth),
            ("makespan", lambda p: f"{p.makespan:.0f}"),
            ("io stall", lambda p: f"{p.io_stall_cost:.0f}"),
            ("io overlapped", lambda p: f"{p.io_overlapped_cost:.0f}"),
            ("scan io share", lambda p: f"{p.scan_io_share:.0%}"),
        ]
        eviction_columns = [
            ("policy", lambda p: p.policy),
            ("pool/table pages", lambda p: f"{p.pool_pages}/{p.table_pages}"),
            ("2nd-pass hits", lambda p: p.second_pass_hits),
            ("hit rate", lambda p: f"{p.hit_rate:.0%}"),
        ]
        return "\n\n".join(
            [
                block(
                    "Cooperative scans — N staggered consumers, one elevator pass",
                    share_columns,
                    self.share,
                    [
                        ("io ratio <= 1.2 everywhere", self.io_ratio_ok()),
                        ("answers identical", self.answers_identical()),
                    ],
                ),
                block(
                    "Async prefetch — single cold scan",
                    prefetch_columns,
                    self.prefetch,
                    [("prefetch > 0 strictly reduces makespan", self.prefetch_strictly_helps())],
                ),
                block(
                    "Scan-aware eviction — two passes over an oversized table",
                    eviction_columns,
                    self.eviction,
                    [("scan-aware beats LRU on reuse", self.scan_aware_eviction_wins())],
                ),
                "Resources (last sweep cell):\n" + render_resources(self.metrics),
            ]
        )


# ``repro experiments fig_scan --quick``.
QUICK = {"consumers": (2, 4), "staggers": (0.0, 0.5), "prefetch_depths": (0, 2)}


def run(
    consumers: Sequence[int] = DEFAULT_CONSUMERS,
    staggers: Sequence[float] = DEFAULT_STAGGERS,
    prefetch_depths: Sequence[int] = DEFAULT_PREFETCH_DEPTHS,
) -> FigScanResult:
    catalog = replica_catalog(SCAN_TABLE, SCAN_ROWS, max(consumers), DEFAULT_SEED)
    pages = catalog.table(SCAN_TABLE).page_count(SCAN_CONFIG.page_rows)
    solo = _solo_cold_makespan(catalog, pages)
    reference_rows = sorted(catalog.table(SCAN_TABLE).rows())

    share = []
    last_metrics = None
    for m in consumers:
        for fraction in staggers:
            point, last_metrics = _measure_share_point(
                catalog, pages, m, fraction * solo, fraction, reference_rows
            )
            share.append(point)
    return FigScanResult(
        share=tuple(share),
        prefetch=tuple(_measure_prefetch(catalog, pages, depth) for depth in prefetch_depths),
        eviction=tuple(_measure_eviction(catalog, pages, policy) for policy in ("lru", "scan")),
        metrics=last_metrics,
    )
