"""Shared infrastructure for the experiment drivers.

Two measurement protocols, matching the paper:

* **Batch speedup** (Figures 1, 2, 5): ``m`` identical queries are
  submitted simultaneously; the speedup of sharing is the ratio of the
  independent-execution makespan to the shared-group makespan. This is
  the protocol the model predicts directly (all ``m`` queries present,
  one group).
* **Closed-system throughput** (Figure 6): ``N`` clients each keep one
  query outstanding, routed through a sharing policy; throughput is
  completions per time over a steady-state window
  (:mod:`repro.workload`).

A module-level catalog cache keeps the TPC-H database generation out
of the measured paths and shares one database across experiments.

The scaffold under the figure drivers lives here too: the seeded
stream their synthetic tables draw from (:func:`lcg`), the
common-table-plus-private-replicas catalog (:func:`replica_catalog`),
the lookup behind every result object's by-field accessor
(:func:`pick`), and the two claim checks several figures assert
(:func:`nondecreasing`, :func:`beats_depth_zero`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.engine.costs import DEFAULT_COST_MODEL, CostModel
from repro.engine.engine import Engine
from repro.sim.simulator import Simulator
from repro.storage import Catalog, DataType, Schema
from repro.storage.lru import WeightedLRU
from repro.tpch.generator import generate
from repro.tpch.queries import TpchQuery, build

__all__ = [
    "DEFAULT_SCALE_FACTOR",
    "DEFAULT_SEED",
    "LCG_MODULUS",
    "PAPER_PROCESSOR_COUNTS",
    "SpeedupSeries",
    "shared_catalog",
    "batch_makespan",
    "batch_speedup",
    "speedup_series",
    "lcg",
    "replica_names",
    "replica_catalog",
    "pick",
    "nondecreasing",
    "beats_depth_zero",
]

# Raised 0.001 -> 0.005 with the columnar batch engine: the ~5-8x
# host-side speedup buys a 5x larger default database at the same
# figure-generation wall time.
DEFAULT_SCALE_FACTOR = 0.005
DEFAULT_SEED = 2007
PAPER_PROCESSOR_COUNTS = (1, 2, 8, 32)
LCG_MODULUS = 2147483647

# The 8 most recently used (scale_factor, seed) databases: a figure
# sweeps a handful, a caller regenerating a cell per seed forever (the
# benchmark's ``fig6_closed``) must not keep every one.
_CATALOG_CACHE = WeightedLRU(8)


def shared_catalog(scale_factor: float = DEFAULT_SCALE_FACTOR, seed: int = DEFAULT_SEED) -> Catalog:
    """Memoized TPC-H database for the experiment suite."""
    key = (scale_factor, seed)
    catalog = _CATALOG_CACHE.get(key)
    if catalog is None:
        catalog = generate(scale_factor=scale_factor, seed=seed)
        _CATALOG_CACHE.put(key, catalog)
    return catalog


@dataclass(frozen=True)
class SpeedupSeries:
    """One line of a speedup figure: Z over client counts."""

    query: str
    processors: int
    clients: tuple[int, ...]
    speedups: tuple[float, ...]

    def as_mapping(self) -> Mapping[int, float]:
        return dict(zip(self.clients, self.speedups))

    def max_speedup(self) -> float:
        return max(self.speedups)

    def min_speedup(self) -> float:
        return min(self.speedups)


def batch_makespan(
    catalog: Catalog,
    query: TpchQuery,
    m: int,
    processors: int,
    shared: bool,
    costs: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Simulated time for ``m`` copies of ``query`` to complete on an
    ungoverned engine (no buffer pool, no memory broker)."""
    sim = Simulator(processors=processors)
    engine = Engine(catalog, sim, costs=costs)
    labels = [f"{query.name}#{i}" for i in range(m)]
    if shared and m > 1:
        engine.execute_group([query.plan] * m, pivot_op_id=query.pivot, labels=labels)
    else:
        for label in labels:
            engine.execute(query.plan, label)
    sim.run()
    return sim.now


def batch_speedup(
    catalog: Catalog,
    query: TpchQuery,
    m: int,
    processors: int,
    costs: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Measured Z(m, n): unshared makespan over shared makespan."""
    unshared = batch_makespan(catalog, query, m, processors, shared=False, costs=costs)
    shared = batch_makespan(catalog, query, m, processors, shared=True, costs=costs)
    return unshared / shared


def speedup_series(
    catalog: Catalog,
    query_name: str,
    processors: int,
    clients: Sequence[int],
    costs: CostModel = DEFAULT_COST_MODEL,
) -> SpeedupSeries:
    """Measure one figure line through the staged engine."""
    query = build(query_name, catalog)
    speedups = tuple(batch_speedup(catalog, query, m, processors, costs=costs) for m in clients)
    return SpeedupSeries(
        query=query_name,
        processors=processors,
        clients=tuple(clients),
        speedups=speedups,
    )


def lcg(seed: int, n: int) -> list[int]:
    """The first ``n`` states of the Park-Miller stream seeded by
    ``seed``: deterministic, independent of ``PYTHONHASHSEED``, and the
    source of every synthetic table the figures build."""
    state = seed & 0x7FFFFFFF or 1
    states = []
    for _ in range(n):
        state = (state * 48271) % LCG_MODULUS
        states.append(state)
    return states


def replica_names(table: str, replicas: int) -> list[str]:
    """The private copies of ``table`` in a :func:`replica_catalog`."""
    return [f"{table}__{t}" for t in range(replicas)]


def replica_catalog(table: str, rows: int, replicas: int, seed: int) -> Catalog:
    """A catalog with one common table plus per-consumer replicas.

    The table is ``(k INT, v FLOAT)``; row ``i`` carries ``(k=i,
    v=deterministic pseudo-uniform [0,1))``. The replicas
    (:func:`replica_names`) are byte-identical to the common table, so
    a query is the same work no matter which copy it scans — only
    cache behavior differs.
    """
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    data = [(i, state / LCG_MODULUS) for i, state in enumerate(lcg(seed, rows))]
    for name in [table, *replica_names(table, replicas)]:
        catalog.create(name, schema).insert_many(data)
    return catalog


def pick(items, **fields):
    """The first of ``items`` whose attributes equal ``fields``.

    Raises :class:`KeyError` when none does — the lookup behind every
    result object's by-field accessor (``line``, ``cell``, ...).
    """
    for item in items:
        if all(getattr(item, name) == value for name, value in fields.items()):
            return item
    raise KeyError(fields)


def nondecreasing(values: Sequence) -> bool:
    """No value is smaller than the one before it."""
    return all(a <= b for a, b in zip(values, values[1:]))


def beats_depth_zero(points: Sequence, *fields: str) -> bool:
    """Every point at ``depth > 0`` is strictly below the ``depth == 0``
    point on each of ``fields`` (False when the sweep lacks the depth-0
    baseline or any deeper point)."""
    base = next((p for p in points if p.depth == 0), None)
    rest = [p for p in points if p.depth > 0]
    if base is None or not rest:
        return False
    return all(getattr(p, field) < getattr(base, field) for p in rest for field in fields)
