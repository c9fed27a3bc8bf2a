"""Grant-governed external sort: identical answers at every budget.

``fig_mem`` established the memory-governance story for hash state
(the spilling hybrid join and aggregate); this experiment closes it
for the last stop-and-go operator, the sort, and for the read-back
half of spilling in general:

**Part A — work_mem sweep.** One sort query runs under shrinking
memory grants. At every budget the output is *identical* to the
unbounded in-memory sort — same rows, same order, same tie order — so
order-sensitive consumers (``limit`` top-N is checked in the sweep)
cannot tell the difference. What changes is cost: smaller grants cut
more sorted runs, need more recursive merge passes (the classic
external-sort arithmetic, reported per point), and pay more spill and
read-back I/O, so the makespan degrades *monotonically* as the grant
shrinks — a graceful slope, not a cliff.

**Part B — prefetched spill read-back.** The merge phase re-reads its
runs through :class:`~repro.storage.spill_cursor.SpillCursor`s, one
sequential prefetch pipeline per run. At a fixed (small) budget, any
read-ahead depth > 0 strictly beats depth 0: the merge's per-page CPU
drains the next spill pages' ``io_page`` cost, converting synchronous
stall into overlap — the same FIFO disk model the cooperative scans
use, now applied to operator cleanup I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.db import Database, RuntimeConfig
from repro.engine import CostModel, limit, scan, sort
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.report import format_table
from repro.storage import Catalog, DataType, Schema
from repro.storage.page import DEFAULT_PAGE_ROWS

__all__ = [
    "SortPoint",
    "SpillPrefetchPoint",
    "FigSortResult",
    "run",
    "DEFAULT_WORK_MEMS",
    "DEFAULT_PREFETCH_DEPTHS",
]

SORT_TABLE = "sortstream"
SORT_ROWS = 6000
TOPN = 50
# Cold-storage calibration, as in fig_mem: a page fetch costs on the
# order of the CPU work of processing the page, a spill write slightly
# more (write amplification).
SORT_COSTS = CostModel(io_page=160.0, spill_page=200.0)
# One fits-in-memory budget, then budgets that strictly deepen the
# merge (1, 2, 3, 6 passes over ~94 data pages). Budgets that only
# change the *run length* at equal pass count (e.g. 64 vs 16 pages)
# do the same total spill work and differ only in buffer-pool luck,
# which is not the degradation axis this figure is about.
DEFAULT_WORK_MEMS = (128, 16, 8, 4, 2)
DEFAULT_PREFETCH_DEPTHS = (0, 1, 2, 4)


def _sort_catalog(base_rows: int, seed: int) -> Catalog:
    """A table with a duplicate-heavy group column and a unique one.

    Sorting ``(g asc, k desc)`` exercises mixed directions *and* tie
    handling: every ``g`` group holds many rows, so a merge that broke
    stability would reorder them visibly.
    """
    catalog = Catalog()
    schema = Schema([("g", DataType.INT), ("k", DataType.INT), ("v", DataType.FLOAT)])
    rows = []
    state = seed & 0x7FFFFFFF or 1
    for i in range(base_rows):
        # Park-Miller LCG: deterministic, independent of PYTHONHASHSEED.
        state = (state * 48271) % 2147483647
        rows.append((state % 23, i, state / 2147483647.0))
    catalog.create(SORT_TABLE, schema).insert_many(rows)
    return catalog


SORT_KEYS = (("g", True), ("k", False))


def _sort_plan(catalog: Catalog, top_n: int | None = None):
    plan = sort(
        scan(catalog, SORT_TABLE, columns=["g", "k", "v"], op_id="sort_scan"),
        list(SORT_KEYS),
        op_id="big_sort",
    )
    if top_n is not None:
        plan = limit(plan, top_n, op_id="topn")
    return plan


def _run_once(
    catalog: Catalog,
    work_mem: int | None,
    pool_pages: int,
    processors: int,
    page_rows: int,
    prefetch_depth: int = 0,
    top_n: int | None = None,
):
    """Execute the sort plan once; returns (rows, makespan, result)."""
    config = RuntimeConfig(
        work_mem=work_mem,
        pool_pages=pool_pages,
        spill_prefetch_depth=prefetch_depth,
        page_rows=page_rows,
        processors=processors,
        cost_model=SORT_COSTS,
    )
    session = Database.open(catalog, config)
    budget = "unbounded" if work_mem is None else f"wm{work_mem}"
    result = session.run(_sort_plan(catalog, top_n), label=f"sort@{budget}/pf{prefetch_depth}")
    return result.rows, result.makespan, result


# ----------------------------------------------------------------------
# Part A: work_mem sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SortPoint:
    """One work_mem budget of the external-sort sweep."""

    work_mem: int
    makespan: float
    sort_runs: int
    merge_passes: int
    spilled_pages: int
    spill_pages_read: int
    identical: bool
    topn_identical: bool


def _measure_budget(
    catalog: Catalog,
    work_mem: int,
    pool_pages: int,
    processors: int,
    page_rows: int,
    reference_rows: list,
    reference_topn: list,
) -> SortPoint:
    rows, makespan, result = _run_once(catalog, work_mem, pool_pages, processors, page_rows)
    topn_rows, _, _ = _run_once(catalog, work_mem, pool_pages, processors, page_rows, top_n=TOPN)
    notes = result.grant_notes("big_sort")
    return SortPoint(
        work_mem=work_mem,
        makespan=makespan,
        sort_runs=notes.get("sort_runs", 0),
        merge_passes=notes.get("merge_passes", 0),
        spilled_pages=notes.get("spilled_pages", 0),
        spill_pages_read=result.metrics["spill.pages_read"],
        identical=rows == reference_rows,
        topn_identical=topn_rows == reference_topn,
    )


# ----------------------------------------------------------------------
# Part B: prefetched spill read-back
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpillPrefetchPoint:
    """One read-ahead depth at a fixed small budget."""

    depth: int
    makespan: float
    read_stall: float
    read_overlapped: float
    prefetch_issued: int
    identical: bool


def _measure_prefetch(
    catalog: Catalog,
    depth: int,
    work_mem: int,
    pool_pages: int,
    processors: int,
    page_rows: int,
    reference_rows: list,
) -> SpillPrefetchPoint:
    rows, makespan, result = _run_once(
        catalog,
        work_mem,
        pool_pages,
        processors,
        page_rows,
        prefetch_depth=depth,
    )
    metrics = result.metrics
    return SpillPrefetchPoint(
        depth=depth,
        makespan=makespan,
        read_stall=metrics["spill.read_stall"],
        read_overlapped=metrics["spill.read_overlapped"],
        prefetch_issued=metrics["spill.prefetch_issued"],
        identical=rows == reference_rows,
    )


# ----------------------------------------------------------------------
# The figure
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FigSortResult:
    sweep: tuple[SortPoint, ...]
    prefetch: tuple[SpillPrefetchPoint, ...]
    prefetch_work_mem: int
    processors: int

    def answers_identical(self) -> bool:
        """Every budget (and every prefetch depth) reproduced the
        unbounded sort bit for bit, top-N order included."""
        sweep_ok = all(p.identical and p.topn_identical for p in self.sweep)
        return sweep_ok and all(p.identical for p in self.prefetch)

    def degradation_monotone(self) -> bool:
        """Shrinking work_mem never makes the sort *faster*."""
        ordered = sorted(self.sweep, key=lambda p: p.work_mem, reverse=True)
        spans = [p.makespan for p in ordered]
        return all(a <= b for a, b in zip(spans, spans[1:]))

    def spill_monotone(self) -> bool:
        """Runs, passes and spilled pages grow as the grant shrinks."""
        ordered = sorted(self.sweep, key=lambda p: p.work_mem, reverse=True)
        for field in ("sort_runs", "merge_passes", "spilled_pages"):
            values = [getattr(p, field) for p in ordered]
            if not all(a <= b for a, b in zip(values, values[1:])):
                return False
        return True

    def prefetch_strictly_helps(self) -> bool:
        """Any depth > 0 strictly beats depth 0 on both makespan and
        read-back stall (False when the sweep lacks either side)."""
        base = next((p for p in self.prefetch if p.depth == 0), None)
        rest = [p for p in self.prefetch if p.depth > 0]
        if base is None or not rest:
            return False
        return all(p.makespan < base.makespan and p.read_stall < base.read_stall for p in rest)

    def render(self) -> str:
        headers = [
            "work_mem",
            "makespan",
            "runs",
            "merge passes",
            "spilled pages",
            "pages re-read",
            "identical",
            "top-N identical",
        ]
        rows = [
            [
                p.work_mem,
                f"{p.makespan:.0f}",
                p.sort_runs,
                p.merge_passes,
                p.spilled_pages,
                p.spill_pages_read,
                "yes" if p.identical else "NO",
                "yes" if p.topn_identical else "NO",
            ]
            for p in self.sweep
        ]
        sweep_title = "External sort — work_mem sweep (grant-governed runs + k-way merge)"
        sweep_summary = (
            f"  answers identical everywhere: {self.answers_identical()};"
            f"  degradation monotone: {self.degradation_monotone()};"
            f"  spill growth monotone: {self.spill_monotone()}"
        )
        blocks = [f"{sweep_title}\n{format_table(headers, rows)}\n{sweep_summary}"]

        headers = [
            "prefetch k",
            "makespan",
            "read stall",
            "read overlapped",
            "prefetches",
            "identical",
        ]
        rows = [
            [
                p.depth,
                f"{p.makespan:.0f}",
                f"{p.read_stall:.0f}",
                f"{p.read_overlapped:.0f}",
                p.prefetch_issued,
                "yes" if p.identical else "NO",
            ]
            for p in self.prefetch
        ]
        prefetch_title = f"Spill read-back prefetch — work_mem {self.prefetch_work_mem}"
        prefetch_summary = (
            f"  prefetch > 0 strictly faster read-back: {self.prefetch_strictly_helps()}"
        )
        blocks.append(f"{prefetch_title}\n{format_table(headers, rows)}\n{prefetch_summary}")
        return "\n\n".join(blocks)


# ``repro experiments fig_sort --quick``.
QUICK = {"work_mems": (128, 8, 2), "prefetch_depths": (0, 2)}


def run(
    work_mems: Sequence[int] = DEFAULT_WORK_MEMS,
    prefetch_depths: Sequence[int] = DEFAULT_PREFETCH_DEPTHS,
    processors: int = 4,
    base_rows: int = SORT_ROWS,
    page_rows: int = DEFAULT_PAGE_ROWS,
    pool_pages: int = 16,
    prefetch_work_mem: int = 4,
    seed: int = DEFAULT_SEED,
) -> FigSortResult:
    catalog = _sort_catalog(base_rows, seed)
    reference_rows, _, _ = _run_once(catalog, None, pool_pages, processors, page_rows)
    reference_topn, _, _ = _run_once(catalog, None, pool_pages, processors, page_rows, top_n=TOPN)

    sweep = tuple(
        _measure_budget(
            catalog,
            work_mem,
            pool_pages,
            processors,
            page_rows,
            reference_rows,
            reference_topn,
        )
        for work_mem in work_mems
    )
    prefetch = tuple(
        _measure_prefetch(
            catalog,
            depth,
            prefetch_work_mem,
            pool_pages,
            processors,
            page_rows,
            reference_rows,
        )
        for depth in prefetch_depths
    )
    return FigSortResult(
        sweep=sweep,
        prefetch=prefetch,
        prefetch_work_mem=prefetch_work_mem,
        processors=processors,
    )
