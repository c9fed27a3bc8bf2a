"""Drift-bounded elevator scans: to throttle, to split, or to regret.

Cooperative (elevator) scans promise N concurrent consumers one
shared physical pass — but the promise assumes the convoy stays
together. This experiment breaks that assumption with
**consumer-speed skew**: a convoy of identical scans whose consumers
pay very different per-page CPU (an expensive fused predicate,
``cost_factor``), swept across a skew axis, under the three drift
policies of :class:`~repro.storage.shared_scan.ScanShareManager`:

``unbounded``
    ``drift_bound=None`` — the historical behavior. Stragglers
    silently fall behind the head; once their lag exceeds what the
    pool retains, their reads degrade to private cold misses. With a
    mutually-spread slow cluster the physical read bill climbs from
    ~1 pass toward one pass *per consumer* — the "to share or not to
    share" regret: the sharing the attach-benefit projection promised
    never happens.
``throttle``
    A drift bound pauses the head (off-processor, the
    ``drift_throttle`` stall category) until the convoy closes up:
    the physical bill stays ~1 pass at every skew, but every fast
    rider's latency degrades toward the slowest consumer's — the
    head-latency price of a single pass.
``windows``
    The convoy splits into two elevator groups: fast riders keep
    (most of) their pace while the stragglers share a second, slower
    window, span-coupled to the lead so it is not evicted into a
    private pass. Group windows cannot beat the physics of a pool
    smaller than the table — the trailing window's shared re-read is
    its floor, so its bill sits in one-to-two-pass territory rather
    than within 1.5x of a single pass — but at high skew it *Pareto
    dominates* the other two arms: strictly fewer physical reads
    than unbounded drift and strictly lower fast-rider latency than
    throttling.

Every arm and cell returns identical row sets — drift governance
reorders and re-prices the work, never the answer.

**Part B — the decision flip.** The
:class:`~repro.policies.resource_outlook.ResourceOutlook` feeds
ModelGuided the projected attach benefit of cooperative scans; the
undiscounted projection assumes the convoy shares one pass, so it
tells a skewed convoy pivot-sharing is unnecessary — exactly the
regret above. With ``cpu_skew`` in the profile, the drift-discounted
benefit flips the decision to *share*, and measurement agrees: under
skew, the pivot-shared group (one scan, no drift possible) beats the
drifting solo convoy on makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.db import Database, Query, RuntimeConfig
from repro.engine import CostModel
from repro.engine.expressions import col, ge
from repro.engine.plan import filter_, scan
from repro.experiments.common import nondecreasing, pick
from repro.experiments.report import block
from repro.policies.model_guided import ModelGuidedPolicy
from repro.policies.resource_outlook import ResourceOutlook, ResourceProfile
from repro.profiling.profiler import QueryProfiler
from repro.storage import Catalog, DataType, Schema

__all__ = ["DriftPoint", "FlipResult", "FigDriftResult", "run", "DEFAULT_SKEWS", "ARMS"]

DRIFT_TABLE = "driftstream"
DRIFT_ROWS = 1200
PAGE_ROWS = 25  # 48 pages
POOL_PAGES = 22  # < table: a straggler's lag can outrun residency
DRIFT_BOUND = 8
PREFETCH_DEPTH = 2
PROCESSORS = 12  # one context per stage: skew, not contention
# The flip is decided (and validated) in the paper's few-core regime:
# on many cores the model rightly keeps a multiplexed pivot solo even
# after the drift discount, so the regret cell sits at small n.
FLIP_PROCESSORS = 3
# Part B's cell on the skew axis.
FLIP_SKEW = 16
# Cold-storage calibration: a page fetch costs several pages of CPU.
DRIFT_COSTS = CostModel(io_page=400.0)
# The unbounded-drift arm; the other two set drift_bound/group_windows.
DRIFT_CONFIG = RuntimeConfig(
    pool_pages=POOL_PAGES,
    pool_policy="lru",
    prefetch_depth=PREFETCH_DEPTH,
    page_rows=PAGE_ROWS,
    processors=PROCESSORS,
    cost_model=DRIFT_COSTS,
)
DEFAULT_SKEWS = (1, 4, 16, 64)
# The three drift policies: (arm name, drift_bound, group_windows).
ARMS = (
    ("unbounded", None, False),
    ("throttle", DRIFT_BOUND, False),
    ("windows", DRIFT_BOUND, True),
)
# Fast riders at unit speed plus a mutually-spread slow cluster:
# consumer i of the slow half pays skew * 2**i times the base
# predicate cost, so the stragglers drift apart from the head *and
# from each other* (a lockstep slow cluster would implicitly convoy
# through the pool and hide the degradation).
FAST_CONSUMERS = 3
SLOW_CONSUMERS = 3


def _drift_catalog() -> Catalog:
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    table = catalog.create(DRIFT_TABLE, schema)
    table.insert_many([(i, float(i % 97)) for i in range(DRIFT_ROWS)])
    return catalog


def _speeds(skew: int) -> list[float]:
    slow = [float(skew * (2**i)) for i in range(SLOW_CONSUMERS)]
    return [1.0] * FAST_CONSUMERS + slow


# ----------------------------------------------------------------------
# Part A: the skew sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DriftPoint:
    """One (arm, skew) cell of the sweep."""

    arm: str
    skew: int
    table_pages: int
    physical_reads: int
    makespan: float
    fast_latency: float
    slow_latency: float
    max_lag: int
    splits: int
    merges: int
    throttle_stall: float
    drift_throttle_time: float
    identical_answers: bool

    @property
    def passes(self) -> float:
        """Physical reads over one table's pages (1.0 = the ideal)."""
        return self.physical_reads / self.table_pages


def _measure_arm(
    catalog: Catalog, arm: str, drift_bound, group_windows, skew: int, reference_rows: list
) -> DriftPoint:
    pages = catalog.table(DRIFT_TABLE).page_count(PAGE_ROWS)
    config = DRIFT_CONFIG.with_(drift_bound=drift_bound, group_windows=group_windows)
    session = Database.open(catalog, config)
    for i, factor in enumerate(_speeds(skew)):
        query = (
            session.table(DRIFT_TABLE, columns=["k", "v"])
            .where(ge(col("k"), 0))
            .with_cost_factor(factor)
        )
        # share=False: this figure is about sharing at the *storage*
        # layer (the elevator), not about pivot-merging the queries.
        session.submit(query, label=f"{arm}/c{i}", share=False)
    results = session.run_all()
    metrics = results[0].metrics
    latencies = sorted(result.latency for result in results)
    identical = all(sorted(result.rows) == reference_rows for result in results)
    return DriftPoint(
        arm=arm,
        skew=skew,
        table_pages=pages,
        physical_reads=metrics[f"scan.{DRIFT_TABLE}.physical_reads"],
        makespan=session.now,
        fast_latency=latencies[0],
        slow_latency=latencies[-1],
        max_lag=metrics[f"scan.{DRIFT_TABLE}.max_lag"],
        splits=metrics[f"scan.{DRIFT_TABLE}.splits"],
        merges=metrics[f"scan.{DRIFT_TABLE}.merges"],
        throttle_stall=metrics[f"scan.{DRIFT_TABLE}.throttle_stall"],
        drift_throttle_time=metrics["stall.drift_throttle"],
        identical_answers=identical,
    )


# ----------------------------------------------------------------------
# Part B: the ModelGuided flip
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlipResult:
    """Drift-discounted vs undiscounted advice, validated by measurement.

    The two policies see the *same* CPU profile and the same live
    resource state (a cold pool behind an unbounded-drift elevator);
    they differ only in the profile's ``cpu_skew``. ``naive_share``
    is the undiscounted verdict, ``drift_share`` the discounted one;
    the makespans measure both routings on the real skewed convoy.
    """

    group_size: int
    cpu_skew: float
    naive_share: bool
    drift_share: bool
    solo_makespan: float
    shared_makespan: float
    solo_reads: int
    shared_reads: int

    @property
    def flipped(self) -> bool:
        return self.naive_share != self.drift_share

    @property
    def drift_advice_correct(self) -> bool:
        """The discounted verdict matches the measured winner."""
        measured_share = self.shared_makespan < self.solo_makespan
        return self.drift_share == measured_share


def _flip_members(catalog: Catalog, skew: int) -> list[Query]:
    """One group: identical scan pivots under per-member skewed tops.

    The skewed work sits *above* the pivot (a ``filter`` with
    per-member ``cost_factor``), so the pivot subtrees stay
    byte-identical — mergeable by the engine — while the consumers
    drain the pivot at very different speeds.
    """
    members = []
    for i, factor in enumerate(_speeds(skew)):
        pivot = scan(catalog, DRIFT_TABLE, columns=["k", "v"], op_id="pivot")
        plan = filter_(pivot, ge(col("k"), 0), op_id=f"skewtop{i}", cost_factor=factor)
        members.append(Query(plan=plan, pivot_op_id="pivot", name="driftq"))
    return members


def _measure_flip(catalog: Catalog, skew: int) -> FlipResult:
    pages = catalog.table(DRIFT_TABLE).page_count(PAGE_ROWS)
    members = _flip_members(catalog, skew)
    m = len(members)
    cpu_skew = max(_speeds(skew))

    # One CPU profile (warm, contention-free) for both policies.
    profiler = QueryProfiler(catalog, costs=DRIFT_COSTS, page_rows=PAGE_ROWS)
    profile = profiler.profile(members[0].plan, "pivot", label="driftq")
    spec = profile.to_query_spec()
    specs = {"driftq": (spec, "pivot")}

    # Both outlooks watch the same cold, unbounded-drift storage set.
    _, _, scans, _ = DRIFT_CONFIG.build_storage()

    def advice(**skew) -> bool:
        profiles = {"driftq": ResourceProfile(table=DRIFT_TABLE, pages=pages, **skew)}
        outlook = ResourceOutlook(profiles, costs=DRIFT_COSTS, scans=scans)
        policy = ModelGuidedPolicy(specs, outlook=outlook)
        return policy.should_share("driftq", m, FLIP_PROCESSORS).share

    naive_share = advice()
    drift_share = advice(cpu_skew=cpu_skew)

    # Measure both routings on fresh cold sessions.
    def measure(share: bool):
        session = Database.open(catalog, DRIFT_CONFIG.with_(processors=FLIP_PROCESSORS))
        for i, member in enumerate(_flip_members(catalog, skew)):
            session.submit(member, label=f"m{i}", share=share)
        session.run_all()
        return session.now, session.pool.stats.misses

    solo_makespan, solo_reads = measure(False)
    shared_makespan, shared_reads = measure(True)
    return FlipResult(
        group_size=m,
        cpu_skew=cpu_skew,
        naive_share=naive_share,
        drift_share=drift_share,
        solo_makespan=solo_makespan,
        shared_makespan=shared_makespan,
        solo_reads=solo_reads,
        shared_reads=shared_reads,
    )


# ----------------------------------------------------------------------
# The figure
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FigDriftResult:
    points: tuple[DriftPoint, ...]
    flip: FlipResult
    skews: tuple[int, ...]

    def arm(self, arm: str, skew: int) -> DriftPoint:
        return pick(self.points, arm=arm, skew=skew)

    @property
    def top_skew(self) -> int:
        return max(self.skews)

    # -- the claims the figure asserts ---------------------------------

    def answers_identical(self) -> bool:
        """Every arm, every cell: the row set never changes."""
        return all(point.identical_answers for point in self.points)

    def throttle_single_pass(self, bound: float = 1.5) -> bool:
        """Throttling restores ~1 physical pass at every skew."""
        return all(self.arm("throttle", skew).passes <= bound for skew in self.skews)

    def unbounded_degrades(self, floor: float = 2.5) -> bool:
        """Reads grow monotonically with skew, toward one pass per
        mutually-drifting consumer (>= ``floor`` passes at the top)."""
        reads = [self.arm("unbounded", s).physical_reads for s in self.skews]
        return nondecreasing(reads) and self.arm("unbounded", self.top_skew).passes >= floor

    def windows_grouped_bound(self, bound: float = 2.75) -> bool:
        """Group windows hold the grouped-scan bound (two windows ->
        at most ~two shared passes plus split churn) at every cell."""
        return all(self.arm("windows", skew).passes <= bound for skew in self.skews)

    def throttle_costs_head_latency(self) -> bool:
        """The single pass is bought with fast-rider latency."""
        top = self.top_skew
        return self.arm("throttle", top).fast_latency > 2 * self.arm("unbounded", top).fast_latency

    def windows_dominate_at_high_skew(self) -> bool:
        """At the top skew, windows Pareto-dominate: strictly fewer
        physical reads than unbounded drift *and* strictly lower
        fast-rider latency than throttling."""
        top = self.top_skew
        windows = self.arm("windows", top)
        return (
            windows.physical_reads < self.arm("unbounded", top).physical_reads
            and windows.fast_latency < self.arm("throttle", top).fast_latency
        )

    def decision_flips(self) -> bool:
        """The drift discount flips ModelGuided to the measured-correct
        side that the undiscounted projection gets wrong."""
        flip = self.flip
        return (
            flip.flipped and flip.drift_share and flip.drift_advice_correct and not flip.naive_share
        )

    def render(self) -> str:
        columns = [
            ("arm", lambda p: p.arm),
            ("skew", lambda p: p.skew),
            ("reads", lambda p: p.physical_reads),
            ("passes", lambda p: f"{p.passes:.2f}x"),
            ("max lag", lambda p: p.max_lag),
            ("split/merge", lambda p: f"{p.splits}/{p.merges}"),
            ("throttle stall", lambda p: f"{p.throttle_stall:.0f}"),
            ("fast lat", lambda p: f"{p.fast_latency:.0f}"),
            ("slow lat", lambda p: f"{p.slow_latency:.0f}"),
            ("identical", lambda p: "yes" if p.identical_answers else "NO"),
        ]
        title = (
            "Drift governance under consumer-speed skew "
            f"({FAST_CONSUMERS + SLOW_CONSUMERS} consumers, "
            f"pool {POOL_PAGES}/{self.points[0].table_pages} pages, bound {DRIFT_BOUND})"
        )
        sweep = block(
            title,
            columns,
            self.points,
            [("identical answers everywhere", self.answers_identical())],
            [("throttle stays within 1.5x of one pass", self.throttle_single_pass())],
            [("unbounded drift degrades toward a pass per straggler", self.unbounded_degrades())],
            [("windows hold the grouped-scan bound", self.windows_grouped_bound())],
            [("windows Pareto-dominate at top skew", self.windows_dominate_at_high_skew())],
        )

        flip = self.flip
        return (
            f"{sweep}\n\n"
            "ModelGuided flip — drift-discounted attach benefit "
            f"(m={flip.group_size}, cpu_skew={flip.cpu_skew:.0f})\n"
            f"  undiscounted advice: "
            f"{'share' if flip.naive_share else 'solo'};  "
            f"drift-discounted advice: "
            f"{'share' if flip.drift_share else 'solo'}\n"
            f"  measured: solo makespan {flip.solo_makespan:.0f} "
            f"({flip.solo_reads} reads) vs shared "
            f"{flip.shared_makespan:.0f} ({flip.shared_reads} reads)\n"
            f"  discount flips the decision to the measured winner: "
            f"{self.decision_flips()}"
        )


# ``repro experiments fig_drift --quick`` keeps the top-skew cell: the
# degradation claims are asserted there (mid-skew cells only show the
# trend).
QUICK = {"skews": (1, 64)}


def run(skews: Sequence[int] = DEFAULT_SKEWS) -> FigDriftResult:
    skews = tuple(sorted(set(skews)))
    # One catalog serves every cell: sessions only read it.
    catalog = _drift_catalog()
    reference_rows = sorted(catalog.table(DRIFT_TABLE).rows())
    points = [
        _measure_arm(catalog, arm, drift_bound, group_windows, skew, reference_rows)
        for skew in skews
        for arm, drift_bound, group_windows in ARMS
    ]
    flip = _measure_flip(catalog, FLIP_SKEW)
    return FigDriftResult(points=tuple(points), flip=flip, skews=skews)
