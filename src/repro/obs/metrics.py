"""One metric surface over the engine's scattered counters.

The engine's counters live where they are incremented — the pool's
``BufferStats``, the memory broker's fields, the scan manager's
per-table ``TableScanStats``, each task's busy/io/throttle ledger, the
simulator's utilization. :class:`MetricsRegistry` is the one place they
are *read*: every consumer (experiment drivers, benchmarks,
``QueryResult``) asks for a name, not for a component's object.
Named counters and gauges with a flat-dict snapshot:

* manual counters/gauges via :meth:`inc` / :meth:`set`;
* live gauges via :meth:`register` (a zero-argument callable read at
  snapshot time) and :meth:`register_group` (a callable returning a
  whole flat dict — used for dynamic families like per-table scans);
* :meth:`snapshot` returns one flat ``{name: number}`` dict with
  deterministic key order, :meth:`delta` diffs two snapshots, and
  :meth:`to_json` exports JSON.

Metric names are dot-separated paths, ``<subsystem>.<counter>`` with
an optional instance segment (``scan.<table>.<counter>``,
``stage.<op_id>.<counter>``). The full vocabulary is documented in
``docs/observability.md``; :meth:`MetricsRegistry.for_engine` is the
canonical wiring that registers every standard name an engine (or
:class:`~repro.db.session.Session`) can serve.
"""

from __future__ import annotations

import json
from typing import Callable, Collection, Mapping, Optional

__all__ = ["MetricsRegistry", "stall_breakdown", "render_stall_table", "render_resources"]

# The four stall categories of the paper's time decomposition, in
# report order: pure CPU work, I/O stall inside busy time, off-CPU
# drift-throttle pacing, and off-CPU queue blocking.
STALL_CATEGORIES = ("cpu", "io", "drift_throttle", "queue_block")


class MetricsRegistry:
    """Named counters and gauges with flat snapshots.

    Values are plain numbers. Registered callables are evaluated at
    :meth:`snapshot` time, so a registry wired over live components is
    always current and costs nothing between snapshots.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}
        self._sources: dict[str, Callable[[], float]] = {}
        self._groups: list[tuple[Callable[..., Mapping[str, float]], bool]] = []

    # -- write side --------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> float:
        """Increment a manual counter; creates it at 0 first."""
        value = self._values.get(name, 0) + amount
        self._values[name] = value
        return value

    def set(self, name: str, value: float) -> None:
        """Set a manual gauge."""
        self._values[name] = value

    def register(self, name: str, source: Callable[[], float]) -> None:
        """Back ``name`` with a live callable read at snapshot time."""
        self._sources[name] = source

    def register_group(
        self, source: Callable[..., Mapping[str, float]], scoped: bool = False
    ) -> None:
        """Back a whole *family* of names with one callable returning a
        flat dict — for dynamic instance sets (per-table, per-stage).
        A ``scoped`` source takes :meth:`snapshot`'s ``scope`` as its
        one argument and leaves out the instances outside it."""
        self._groups.append((source, scoped))

    # -- read side ---------------------------------------------------------

    def snapshot(self, scope: Optional[Collection[str]] = None) -> dict[str, float]:
        """All current values as one flat dict, sorted by name.

        ``scope`` (a set of instance names) cuts the scoped families to
        those instances — :meth:`for_engine` scopes ``stage.<op_id>.*``
        by operator id, which is how a result keeps its own batch's
        rows without the snapshot costing every operator the session
        ever ran. Scalars and totals are the same with or without it.
        """
        merged: dict[str, float] = dict(self._values)
        for name, source in self._sources.items():
            merged[name] = source()
        for group, scoped in self._groups:
            merged.update(group(scope) if scoped else group())
        return dict(sorted(merged.items()))

    @staticmethod
    def delta(
        before: Mapping[str, float], after: Mapping[str, float]
    ) -> dict[str, float]:
        """``after - before`` for every key of ``after`` (missing keys
        in ``before`` count as 0), sorted by name."""
        return dict(
            sorted(
                (name, value - before.get(name, 0))
                for name, value in after.items()
            )
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Aligned ``name  value`` text, one metric per line."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics registered)"
        width = max(len(name) for name in snap)
        return "\n".join(
            f"{name:<{width}}  {value:.6g}" if isinstance(value, float)
            else f"{name:<{width}}  {value}"
            for name, value in snap.items()
        )

    # -- canonical wirings -------------------------------------------------

    @classmethod
    def for_engine(cls, engine, simulator=None) -> "MetricsRegistry":
        """The standard registry over an engine's live components.

        Registers the full documented vocabulary: ``sim.*`` from the
        simulator, ``buffer.*`` / ``memory.*`` / ``scan.<table>.*``
        from whichever storage layers the engine wires (absent layers
        contribute nothing), ``stage.<op_id>.*`` and the ``stall.*``
        totals from the task ledger, and the process-wide ``cache.*``
        gauges of the host-side caches.
        """
        registry = cls()
        sim = simulator if simulator is not None else engine.sim
        registry.register("sim.now", lambda: sim.now)
        registry.register("sim.busy_time", lambda: sim.total_busy_time)
        registry.register("sim.utilization", sim.utilization)
        registry.register("sim.tasks", lambda: sim.spawned)
        registry.register("sim.completions", lambda: sim.completions)

        pool = getattr(engine, "pool", None)
        if pool is not None:
            registry.register_group(lambda p=pool: _pool_families(p))
        memory = getattr(engine, "memory", None)
        if memory is not None:
            registry.register_group(lambda m=memory: _memory_family(m))
        scans = getattr(engine, "scan_manager", None)
        if scans is not None:
            registry.register_group(lambda s=scans: _scan_family(s))
        registry.register_group(lambda scope, s=sim: _stage_family(s, scope), scoped=True)
        registry.register_group(_cache_family)
        return registry


def _pool_families(pool) -> dict[str, float]:
    """``buffer.*`` and ``spill.*`` from one pool's counters.

    The spill counters live on :class:`BufferStats` (every spill file
    writes through the pool); they are published as their own
    ``spill.*`` family because they carry the one decomposition the
    external operators care about — how much spill read cost stalled
    vs overlapped with CPU.
    """
    stats = pool.stats
    return {
        "buffer.capacity": pool.capacity,
        "buffer.resident": len(pool),
        "buffer.pinned": pool.pinned_count(),
        "buffer.hits": stats.hits,
        "buffer.misses": stats.misses,
        "buffer.hit_rate": stats.hit_rate,
        "buffer.evictions": stats.evictions,
        "spill.pages_written": stats.spill_pages_written,
        "spill.pages_read": stats.spill_pages_read,
        "spill.prefetch_issued": stats.spill_prefetch_issued,
        "spill.read_stall": stats.spill_read_stall,
        "spill.read_overlapped": stats.spill_read_overlapped,
    }


def _memory_family(memory) -> dict[str, float]:
    return {
        "memory.work_mem": memory.work_mem,
        "memory.reserved": memory.reserved,
        "memory.in_use": memory.in_use,
        "memory.high_water": memory.high_water,
        "memory.overcommits": memory.overcommits,
    }


def _scan_family(scans) -> dict[str, float]:
    family: dict[str, float] = {}
    for stats in scans.snapshot():
        prefix = f"scan.{stats.table}"
        family.update(
            {
                f"{prefix}.pages_served": stats.pages_served,
                f"{prefix}.physical_reads": stats.physical_reads,
                f"{prefix}.attaches": stats.attaches,
                f"{prefix}.max_attach_depth": stats.max_attach_depth,
                f"{prefix}.prefetch_issued": stats.prefetch_issued,
                f"{prefix}.prefetch_wasted": stats.prefetch_wasted,
                f"{prefix}.io_stall": stats.io_stall_cost,
                f"{prefix}.io_overlapped": stats.io_overlapped_cost,
                f"{prefix}.max_lag": stats.max_lag,
                f"{prefix}.throttle_stall": stats.throttle_stall_cost,
                f"{prefix}.splits": stats.splits,
                f"{prefix}.merges": stats.merges,
                f"{prefix}.groups": stats.groups,
            }
        )
    return family


def _stage_family(sim, op_ids: Optional[Collection[str]] = None) -> dict[str, float]:
    # Imported here to keep repro.obs importable without the engine
    # layer (the tracer is usable on a bare simulator).
    from repro.engine.stats import stage_rows

    family: dict[str, float] = {}
    totals = {category: 0.0 for category in STALL_CATEGORIES}
    for op_id, (instances, busy, io, throttle, blocked) in stage_rows(sim):
        if op_ids is None or op_id in op_ids:
            prefix = f"stage.{op_id}"
            family[f"{prefix}.instances"] = instances
            family[f"{prefix}.busy"] = busy
            family[f"{prefix}.io"] = io
            family[f"{prefix}.drift_throttle"] = throttle
            family[f"{prefix}.queue_block"] = blocked
        totals["cpu"] += busy - io
        totals["io"] += io
        totals["drift_throttle"] += throttle
        totals["queue_block"] += blocked
    for category, value in totals.items():
        family[f"stall.{category}"] = value
    return family


def _cache_family() -> dict[str, float]:
    """The host-side caches' occupancy against their ceilings.

    Process-wide, unlike every other family: the decoded-page memo and
    the compiled-expression cache are shared by every session of the
    process. Read from the caches' own counters at snapshot time.
    """
    # Imported here for the reason ``_stage_family`` imports.
    from repro.engine.expressions import BATCH_CACHE
    from repro.storage.table import PAGE_CACHE

    return {
        "cache.pages.signatures": len(PAGE_CACHE),
        "cache.pages.cells": PAGE_CACHE.weight,
        "cache.pages.budget": PAGE_CACHE.budget,
        "cache.pages.evictions": PAGE_CACHE.evictions,
        "cache.exprs.entries": len(BATCH_CACHE),
        "cache.exprs.evictions": BATCH_CACHE.evictions,
    }


def stall_breakdown(snapshot: Mapping[str, float]) -> dict[str, float]:
    """The four ``stall.*`` totals of a flat snapshot, in the fixed
    category order ``cpu, io, drift_throttle, queue_block``."""
    return {
        category: snapshot.get(f"stall.{category}", 0.0)
        for category in STALL_CATEGORIES
    }


def render_stall_table(snapshot: Mapping[str, float]) -> str:
    """The canonical stall-breakdown table over a flat snapshot.

    One fixed format for every consumer (``QueryResult.render()``, the
    experiment drivers, the benchmarks) — replacing the hand-rolled
    per-report variants. Categories in fixed order; the share column
    is of the four categories' total (CPU work plus all stall kinds).

    When the snapshot carries the ``spill.*`` family (registries wired
    by :meth:`MetricsRegistry.for_engine` over an engine with a buffer
    pool), a footer decomposes the spill read-back cost into its
    stalled vs prefetch-overlapped parts — the per-cause detail behind
    the ``io`` row that external sorts and hash joins care about.
    """
    breakdown = stall_breakdown(snapshot)
    total = sum(breakdown.values())
    lines = [f"{'category':>16}  {'time':>12}  share"]
    for category, value in breakdown.items():
        share = value / total if total else 0.0
        bar = "#" * round(share * 30)
        lines.append(
            f"{category:>16}  {value:>12.1f}  {share:>6.1%} {bar}"
        )
    if any(name.startswith("spill.") for name in snapshot):
        stalled = snapshot.get("spill.read_stall", 0.0)
        overlapped = snapshot.get("spill.read_overlapped", 0.0)
        read_total = stalled + overlapped
        overlap_share = overlapped / read_total if read_total else 0.0
        lines.append(
            f"{'spill read-back':>16}  {read_total:>12.1f}  "
            f"{overlap_share:>6.1%} overlapped "
            f"({snapshot.get('spill.pages_written', 0):.0f}w/"
            f"{snapshot.get('spill.pages_read', 0):.0f}r pages)"
        )
    return "\n".join(lines)


def _family(snapshot: Mapping[str, float], prefix: str) -> dict[str, float]:
    """The names under ``prefix``, keyed by what follows it."""
    return {
        name[len(prefix):]: value
        for name, value in snapshot.items()
        if name.startswith(prefix)
    }


def _instances(family: Mapping[str, float], counter: str) -> list[str]:
    """The instances of a ``<instance>.<counter>`` family."""
    tail = f".{counter}"
    return [name[: -len(tail)] for name in family if name.endswith(tail)]


def render_resources(snapshot: Mapping[str, float]) -> str:
    """The storage layers and stages of a flat snapshot as text.

    One line each for the buffer pool, working memory and every
    table's elevator — in that order; a layer the engine does not wire
    has no names in the snapshot and no line here — then the per-stage
    busy table, bottleneck first, bars scaled to the stages shown.
    """
    lines = []
    buffer, spill = _family(snapshot, "buffer."), _family(snapshot, "spill.")
    if buffer:
        text = (
            f"buffer pool: {buffer['resident']}/{buffer['capacity']} "
            f"pages resident ({buffer['pinned']} pinned), "
            f"{buffer['hits']} hits / {buffer['misses']} misses "
            f"({buffer['hit_rate']:.1%} hit rate), "
            f"{buffer['evictions']} evictions, "
            f"spill {spill['pages_written']} written / {spill['pages_read']} read"
        )
        if spill["prefetch_issued"] or spill["read_stall"]:
            text += (
                f"; spill read-back: {spill['prefetch_issued']} "
                f"prefetches, stall {spill['read_stall']:.0f} / "
                f"overlapped {spill['read_overlapped']:.0f}"
            )
        lines.append(text)
    memory = _family(snapshot, "memory.")
    if memory:
        lines.append(
            f"work_mem {memory['work_mem']} pages: "
            f"reserved {memory['reserved']}, in use {memory['in_use']}, "
            f"high-water {memory['high_water']}, "
            f"overcommits {memory['overcommits']}"
        )
    scans = _family(snapshot, "scan.")
    for table in _instances(scans, "pages_served"):
        scan = _family(scans, f"{table}.")
        served, reads = scan["pages_served"], scan["physical_reads"]
        text = (
            f"scan[{table}]: {scan['attaches']} attaches "
            f"(depth <= {scan['max_attach_depth']}), "
            f"{served} pages served / {reads} physical reads "
            f"({served / reads if reads else float(served):.2f}x), "
            f"prefetch {scan['prefetch_issued']} issued "
            f"({scan['prefetch_wasted']} wasted), "
            f"io stall {scan['io_stall']:.0f} / "
            f"overlapped {scan['io_overlapped']:.0f}"
        )
        if scan["max_lag"] or scan["throttle_stall"] or scan["splits"] or scan["merges"]:
            text += (
                f"; drift lag <= {scan['max_lag']}, "
                f"throttle stall {scan['throttle_stall']:.0f}, "
                f"{scan['splits']} splits / {scan['merges']} merges"
            )
        lines.append(text)
    stages = _family(snapshot, "stage.")
    busiest_first = sorted(
        _instances(stages, "busy"), key=lambda op_id: stages[f"{op_id}.busy"], reverse=True
    )
    if busiest_first:
        total = sum(stages[f"{op_id}.busy"] for op_id in busiest_first)
        lines.append(f"{'stage':>28}  {'inst':>4}  {'busy':>12}  share")
        for op_id in busiest_first:
            busy = stages[f"{op_id}.busy"]
            bar = "#" * max(1, round(busy / total * 40)) if total else ""
            lines.append(
                f"{op_id:>28}  {stages[f'{op_id}.instances']:>4}  {busy:>12.1f}  {bar}"
            )
    return "\n".join(lines)
