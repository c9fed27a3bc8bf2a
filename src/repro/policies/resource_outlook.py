"""Resource projections feeding the sharing decision.

The Section-4 model prices sharing in CPU terms from profiled
``(w, s)`` parameters; ``fig_mem`` Part B showed the decision *flips*
with cache temperature — cold unshared tenants each pay the full
``io_page`` bill while a shared pivot pays it once — but getting that
flip required re-profiling the query against a cold pool.
:class:`ResourceOutlook` automates it: it projects, from the live
resource layer, the extra work an *unshared* execution of the
prospective group would pay over a shared one, and folds that
difference into the pivot's ``w`` before the model runs.

The fold exploits the model's structure: the pivot's ``w`` is counted
once under sharing and ``m`` times unshared, so adding
``X = (unshared_extra - shared_extra) / (m - 1)`` to it widens the
unshared-vs-shared gap by exactly the projected resource delta.

Two projections contribute:

* **Cold-scan I/O** — ``io_page`` times the pivot table's non-resident
  pages. With a :class:`~repro.storage.shared_scan.ScanShareManager`
  attached the *unshared* queries also share the physical pass (they
  attach to the same elevator cursor), so the manager's
  ``projected_attach_benefit`` shrinks the unshared bill toward the
  shared one and the decision reverts to CPU terms — cooperative
  scans make pivot-sharing unnecessary for I/O alone. That promise
  only holds for convoys that stay together: a profile with
  ``cpu_skew > 1`` (slowest rider's per-page CPU over the fastest's)
  projects *drift*, and the attach benefit is discounted by the
  manager's drift governance — unbounded drift degrades toward
  private passes, group windows hold two, throttling keeps one — so
  ModelGuided stops over-promising sharing to skewed convoys.
* **Spill pressure** — the :class:`~repro.engine.memory.MemoryBroker`'s
  ``projected_spill``: m unshared queries each claim the query's
  working pages while a shared group claims them once; every avoided
  spill page saves a ``spill_page`` write and an ``io_page`` read-back.

Units: projections are in cost-model units, the same units the
profiler's busy-time ``w`` values are expressed in at contention-free
speed — the approximation the experiments validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.contention import ContentionLike, resolve
from repro.core.decision import ShareAdvisor, ShareDecision
from repro.core.spec import QuerySpec
from repro.engine.costs import CostModel
from repro.engine.memory import MemoryBroker
from repro.errors import PolicyError
from repro.storage.buffer import BufferPool
from repro.storage.shared_scan import ScanShareManager

__all__ = ["ResourceProfile", "ResourceOutlook", "ParallelProjection"]

# Tie-break preference for the mode choice: earlier entries win equal
# projected makespans (the simpler execution shape is preferred when
# the model sees no difference).
MODES = ("solo", "share", "parallel", "both")


@dataclass(frozen=True)
class ParallelProjection:
    """The outlook's verdict on one share-vs-parallelize choice.

    ``mode`` is the arm with the smallest projected makespan among
    ``solo`` (m independent serial queries), ``share`` (one pivot-
    shared group of m), ``parallel`` (m independent queries, each
    split into ``dop`` exchange-connected fragments), and ``both``
    (the Section 8.1 arrangement: several smaller shared groups run
    concurrently, reaping sharing *and* parallelism). ``makespans``
    holds every arm's projection (``inf`` = arm unavailable);
    ``partition_group_size`` is the per-group size behind a ``both``
    verdict (0 otherwise); ``decision`` is the binary verdict whose
    rates priced the serial arms.
    """

    mode: str
    dop: int
    group_size: int
    makespans: Mapping[str, float] = field(default_factory=dict)
    partition_group_size: int = 0
    decision: Optional[ShareDecision] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise PolicyError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class ResourceProfile:
    """Static resource footprint of one query type.

    ``table``/``pages`` describe the pivot's base-table scan;
    ``work_pages`` the working memory its stateful operators (hash
    tables, sort buffers) claim. ``cpu_skew`` is the projected
    per-page CPU ratio between the slowest and fastest concurrent
    consumer of the query type (1.0 = a uniform convoy): it is what
    lets the outlook discount the cooperative-scan attach benefit by
    projected drift.
    """

    table: str
    pages: int
    work_pages: int = 0
    cpu_skew: float = 1.0

    def __post_init__(self) -> None:
        if self.pages < 0:
            raise PolicyError(f"pages must be >= 0, got {self.pages}")
        if self.work_pages < 0:
            raise PolicyError(f"work_pages must be >= 0, got {self.work_pages}")
        if self.cpu_skew < 1:
            raise PolicyError(f"cpu_skew must be >= 1, got {self.cpu_skew}")


class ResourceOutlook:
    """Projects I/O and memory effects of sharing for the policies.

    Parameters
    ----------
    profiles:
        ``query_name -> ResourceProfile``. Queries without a profile
        get no adjustment (pure CPU decision).
    costs:
        The engine's cost model (``io_page`` / ``spill_page`` terms).
    pool:
        The buffer pool whose residency the I/O projection reads.
    scans:
        Optional scan-share manager; when present, unshared scans are
        assumed to attach cooperatively and the I/O penalty shrinks.
    memory:
        Optional broker for the spill projection.
    """

    def __init__(
        self,
        profiles: Mapping[str, ResourceProfile],
        costs: CostModel,
        pool: Optional[BufferPool] = None,
        scans: Optional[ScanShareManager] = None,
        memory: Optional[MemoryBroker] = None,
    ) -> None:
        if scans is not None and pool is None:
            pool = scans.pool
        self.profiles = dict(profiles)
        self.costs = costs
        self.pool = pool
        self.scans = scans
        self.memory = memory

    # ------------------------------------------------------------------

    def cold_pages(self, profile: ResourceProfile) -> int:
        """The profile's table pages not currently resident."""
        if self.pool is None:
            return 0
        return max(0, profile.pages - self.pool.resident_pages(profile.table))

    def pivot_extra_work(self, query_name: str, group_size: int) -> float:
        """Per-query pivot-``w`` increment encoding the projected
        resource advantage of sharing a group of ``group_size``.

        Returns 0 when nothing is projected (warm cache, ample
        memory, unknown query, or a singleton group).
        """
        profile = self.profiles.get(query_name)
        if profile is None or group_size < 2:
            return 0.0
        m = group_size

        # Cold-scan I/O: unshared total vs shared total. The attach
        # benefit is discounted by projected drift for skewed convoys
        # (a pivot-shared group has one scan, so the shared side
        # cannot drift).
        cold = self.cold_pages(profile)
        if self.scans is not None:
            unshared_io = m * self.scans.projected_attach_benefit(
                profile.table,
                profile.pages,
                m,
                cpu_skew=profile.cpu_skew,
            )
        else:
            unshared_io = float(m * cold)
        shared_io = float(cold)
        extra = max(0.0, unshared_io - shared_io) * self.costs.io_page

        # Spill pressure: every avoided spill page saves a write and a
        # read-back.
        if self.memory is not None and profile.work_pages:
            unshared_spill = self.memory.projected_spill(profile.work_pages, operators=m)
            shared_spill = self.memory.projected_spill(profile.work_pages)
            extra += max(0, unshared_spill - shared_spill) * (
                self.costs.spill_page + self.costs.io_page
            )

        return extra / (m - 1)

    def projections(self, query_name: str, group_size: int) -> dict:
        """Every projection for one prospective group, the inputs a
        decision is priced with and its audit record carries:
        ``projected_io_extra`` (:meth:`pivot_extra_work`), and — for a
        profiled query — the broker's ``projected_spill_pages`` for the
        unshared plan and the manager's ``projected_drift_share``."""
        fields: dict = {"projected_io_extra": self.pivot_extra_work(query_name, group_size)}
        profile = self.profiles.get(query_name)
        if profile is None:
            return fields
        if self.memory is not None and profile.work_pages:
            fields["projected_spill_pages"] = self.memory.projected_spill(
                profile.work_pages, operators=group_size
            )
        if self.scans is not None:
            fields["projected_drift_share"] = self.scans.projected_drift_share(
                profile.table, profile.pages, group_size, cpu_skew=profile.cpu_skew
            )
        return fields

    @staticmethod
    def share_vs_parallelize(
        decision: ShareDecision,
        dop: int,
        contention: ContentionLike = None,
        partition_skew: float = 1.0,
        spec: Optional[QuerySpec] = None,
        pivot_name: Optional[str] = None,
    ) -> ParallelProjection:
        """Project the makespan of every execution arm of a priced
        verdict — ``decision``'s group of m on its n contexts — and
        pick one.

        The serial arms reuse the verdict's Section-4 rates
        (``m / rate``). The ``parallel`` arm scales the solo
        makespan by a speedup built from three factors:

        * **context headroom** — a query can use at most
          ``min(dop, n/m)`` contexts before its siblings contend for
          them (and never fewer than 1);
        * **partition skew** — fragments finish with the largest
          partition, so the split itself buys at most
          ``dop / partition_skew`` (``skew = dop * largest partition
          share``; 1.0 = perfectly even);
        * **contention** — busying ``min(m*dop, n)`` contexts instead
          of ``min(m, n)`` drops per-context speed by the power-law
          ratio ``(busy_par / busy_solo) ** (kappa - 1)`` (Section
          4.1.4) — parallelism stops paying exactly where shared
          hardware saturates.

        The ``both`` arm (needs ``spec``/``pivot_name`` and ``m >= 3``)
        asks :meth:`~repro.core.decision.ShareAdvisor.best_partitioning`
        for the best split of the m clients into several concurrent
        shared groups; it only competes when the winning arrangement is
        strictly between one big group and all-solo.

        Modes tie-break toward the simpler shape (solo before share
        before parallel before both).
        """
        if dop < 1:
            raise PolicyError(f"dop must be >= 1, got {dop}")
        if partition_skew < 1:
            raise PolicyError(f"partition_skew must be >= 1, got {partition_skew}")
        m = decision.group_size
        n = decision.processors
        makespans: dict[str, float] = {mode: math.inf for mode in MODES}
        if decision.unshared_rate > 0:
            makespans["solo"] = m / decision.unshared_rate
        if m >= 2 and decision.shared_rate > 0:
            makespans["share"] = m / decision.shared_rate
        if dop >= 2 and makespans["solo"] < math.inf:
            model = resolve(contention)
            per_query = max(1.0, min(float(dop), n / m))
            raw = min(per_query, dop / partition_skew)
            busy_solo = max(1.0, min(float(m), n))
            busy_par = max(1.0, min(float(m * dop), n))
            discount = (model.effective(busy_par) / busy_par) / (
                model.effective(busy_solo) / busy_solo
            )
            speedup = raw * discount
            if speedup > 0:
                makespans["parallel"] = makespans["solo"] / speedup
        partition_group = 0
        if spec is not None and pivot_name is not None and m >= 3:
            advisor = ShareAdvisor(processors=n, contention=contention)
            arrangement = advisor.best_partitioning(spec, pivot_name, m)
            if 1 < arrangement.group_size < m and arrangement.predicted_rate > 0:
                makespans["both"] = m / arrangement.predicted_rate
                partition_group = arrangement.group_size
        mode = min(MODES, key=lambda k: makespans[k])
        if mode != "both":
            partition_group = 0
        return ParallelProjection(
            mode=mode,
            dop=dop,
            group_size=m,
            makespans=makespans,
            partition_group_size=partition_group,
            decision=decision,
        )

    def adjusted_spec(
        self,
        query_name: str,
        spec: QuerySpec,
        pivot_name: str,
        group_size: int,
    ) -> QuerySpec:
        """Return ``spec`` with the pivot's ``w`` bumped by
        :meth:`pivot_extra_work` (or ``spec`` itself when zero)."""
        return spec.with_extra_work(pivot_name, self.pivot_extra_work(query_name, group_size))
