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
from repro.experiments.common import DEFAULT_SEED, LCG_MODULUS, beats_depth_zero, lcg, nondecreasing
from repro.experiments.report import block
from repro.storage import Catalog, DataType, Schema

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
SORT_CONFIG = RuntimeConfig(
    pool_pages=16, processors=4, cost_model=CostModel(io_page=160.0, spill_page=200.0)
)
# One fits-in-memory budget, then budgets that strictly deepen the
# merge (1, 2, 3, 6 passes over ~94 data pages). Budgets that only
# change the *run length* at equal pass count (e.g. 64 vs 16 pages)
# do the same total spill work and differ only in buffer-pool luck,
# which is not the degradation axis this figure is about.
DEFAULT_WORK_MEMS = (128, 16, 8, 4, 2)
DEFAULT_PREFETCH_DEPTHS = (0, 1, 2, 4)
# The fixed (small) budget of Part B.
PREFETCH_WORK_MEM = 4


def _sort_catalog() -> Catalog:
    """A table with a duplicate-heavy group column and a unique one.

    Sorting ``(g asc, k desc)`` exercises mixed directions *and* tie
    handling: every ``g`` group holds many rows, so a merge that broke
    stability would reorder them visibly.
    """
    catalog = Catalog()
    schema = Schema([("g", DataType.INT), ("k", DataType.INT), ("v", DataType.FLOAT)])
    rows = [
        (state % 23, i, state / LCG_MODULUS) for i, state in enumerate(lcg(DEFAULT_SEED, SORT_ROWS))
    ]
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
    prefetch_depth: int = 0,
    top_n: int | None = None,
):
    """Execute the sort plan once; returns the query result."""
    config = SORT_CONFIG.with_(work_mem=work_mem, spill_prefetch_depth=prefetch_depth)
    budget = "unbounded" if work_mem is None else f"wm{work_mem}"
    return Database.open(catalog, config).run(
        _sort_plan(catalog, top_n), label=f"sort@{budget}/pf{prefetch_depth}"
    )


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
    catalog: Catalog, work_mem: int, reference_rows: list, reference_topn: list
) -> SortPoint:
    result = _run_once(catalog, work_mem)
    topn = _run_once(catalog, work_mem, top_n=TOPN)
    notes = result.grant_notes("big_sort")
    return SortPoint(
        work_mem=work_mem,
        makespan=result.makespan,
        sort_runs=notes.get("sort_runs", 0),
        merge_passes=notes.get("merge_passes", 0),
        spilled_pages=notes.get("spilled_pages", 0),
        spill_pages_read=result.metrics["spill.pages_read"],
        identical=result.rows == reference_rows,
        topn_identical=topn.rows == reference_topn,
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


def _measure_prefetch(catalog: Catalog, depth: int, reference_rows: list) -> SpillPrefetchPoint:
    result = _run_once(catalog, PREFETCH_WORK_MEM, prefetch_depth=depth)
    metrics = result.metrics
    return SpillPrefetchPoint(
        depth=depth,
        makespan=result.makespan,
        read_stall=metrics["spill.read_stall"],
        read_overlapped=metrics["spill.read_overlapped"],
        prefetch_issued=metrics["spill.prefetch_issued"],
        identical=result.rows == reference_rows,
    )


# ----------------------------------------------------------------------
# The figure
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FigSortResult:
    sweep: tuple[SortPoint, ...]
    prefetch: tuple[SpillPrefetchPoint, ...]

    def answers_identical(self) -> bool:
        """Every budget (and every prefetch depth) reproduced the
        unbounded sort bit for bit, top-N order included."""
        sweep_ok = all(p.identical and p.topn_identical for p in self.sweep)
        return sweep_ok and all(p.identical for p in self.prefetch)

    def _grows_as_grant_shrinks(self, *fields: str) -> bool:
        ordered = sorted(self.sweep, key=lambda p: p.work_mem, reverse=True)
        return all(nondecreasing([getattr(p, field) for p in ordered]) for field in fields)

    def degradation_monotone(self) -> bool:
        """Shrinking work_mem never makes the sort *faster*."""
        return self._grows_as_grant_shrinks("makespan")

    def spill_monotone(self) -> bool:
        """Runs, passes and spilled pages grow as the grant shrinks."""
        return self._grows_as_grant_shrinks("sort_runs", "merge_passes", "spilled_pages")

    def prefetch_strictly_helps(self) -> bool:
        """Any depth > 0 strictly beats depth 0 on both makespan and
        read-back stall (False when the sweep lacks either side)."""
        return beats_depth_zero(self.prefetch, "makespan", "read_stall")

    def render(self) -> str:
        sweep_columns = [
            ("work_mem", lambda p: p.work_mem),
            ("makespan", lambda p: f"{p.makespan:.0f}"),
            ("runs", lambda p: p.sort_runs),
            ("merge passes", lambda p: p.merge_passes),
            ("spilled pages", lambda p: p.spilled_pages),
            ("pages re-read", lambda p: p.spill_pages_read),
            ("identical", lambda p: "yes" if p.identical else "NO"),
            ("top-N identical", lambda p: "yes" if p.topn_identical else "NO"),
        ]
        prefetch_columns = [
            ("prefetch k", lambda p: p.depth),
            ("makespan", lambda p: f"{p.makespan:.0f}"),
            ("read stall", lambda p: f"{p.read_stall:.0f}"),
            ("read overlapped", lambda p: f"{p.read_overlapped:.0f}"),
            ("prefetches", lambda p: p.prefetch_issued),
            ("identical", lambda p: "yes" if p.identical else "NO"),
        ]
        return "\n\n".join(
            [
                block(
                    "External sort — work_mem sweep (grant-governed runs + k-way merge)",
                    sweep_columns,
                    self.sweep,
                    [
                        ("answers identical everywhere", self.answers_identical()),
                        ("degradation monotone", self.degradation_monotone()),
                        ("spill growth monotone", self.spill_monotone()),
                    ],
                ),
                block(
                    f"Spill read-back prefetch — work_mem {PREFETCH_WORK_MEM}",
                    prefetch_columns,
                    self.prefetch,
                    [("prefetch > 0 strictly faster read-back", self.prefetch_strictly_helps())],
                ),
            ]
        )


# ``repro experiments fig_sort --quick``.
QUICK = {"work_mems": (128, 8, 2), "prefetch_depths": (0, 2)}


def run(
    work_mems: Sequence[int] = DEFAULT_WORK_MEMS,
    prefetch_depths: Sequence[int] = DEFAULT_PREFETCH_DEPTHS,
) -> FigSortResult:
    catalog = _sort_catalog()
    reference_rows = _run_once(catalog, None).rows
    reference_topn = _run_once(catalog, None, top_n=TOPN).rows
    return FigSortResult(
        sweep=tuple(
            _measure_budget(catalog, work_mem, reference_rows, reference_topn)
            for work_mem in work_mems
        ),
        prefetch=tuple(
            _measure_prefetch(catalog, depth, reference_rows) for depth in prefetch_depths
        ),
    )
