"""Share or parallelize? The crossover the four-way policy must find.

The paper's question is whether *m* identical arrivals should share
one pivot; PR 9 adds the other axis — splitting each query into
``dop`` exchange-connected fragments — and this experiment measures
where each answer wins, then checks the policy finds the same line.

**Part A — the crossover sweep.** One scan-heavy aggregation runs in
two arms per cell: *share* (all m arrivals merged into one pivot-
shared group) and *parallel* (m solo queries, each fragmented
``dop``-way). Cells sweep the three axes the projection prices:

* **hardware contexts** — plentiful (32), scarce (8), and scarce
  *and contended* (4 contexts under a power-law ``kappa``);
* **consumers m** — 2 (parallelism has room) up to 12 (the pivot's
  once-vs-m-times advantage compounds while m·dop fragments fight
  over the same contexts);
* **data skew** — a uniform group column versus one where 85% of
  rows share one group (the largest hash partition bounds fragment
  speedup).

The expected picture, and what the assertions pin: with many contexts,
few consumers and even partitions, *parallelize* wins; as consumers
pile up or contexts become scarce/contended, *share* wins. The policy
(:meth:`~repro.policies.model_guided.ModelGuidedPolicy.choose_mode`)
is consulted per cell with the profiled spec and the *measured*
partition skew, and must pick the measured winner in ≥ 90% of cells.

**Part B — parity.** Parallelism must never change an answer: the
aggregation plan's row stream is bit-identical to serial at every
``dop`` on every preset (ordered merge), and the partition-wise hash
join reproduces the serial row *set* (gather order differs by
design).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.db import Database, Query, QueryBuilder, RuntimeConfig
from repro.engine import AggSpec
from repro.engine.expressions import col, ge, lit
from repro.engine.operators.partitioning import partition_of
from repro.engine.parallel import EXCHANGE_SALT
from repro.experiments.common import DEFAULT_SEED, LCG_MODULUS, lcg, pick
from repro.experiments.report import block
from repro.policies import ModelGuidedPolicy
from repro.profiling import QueryProfiler
from repro.storage import Catalog, DataType, Schema

__all__ = [
    "ParallelCell",
    "ParityPoint",
    "FigParallelResult",
    "run",
    "DEFAULT_CONTEXTS",
    "DEFAULT_CONSUMERS",
    "DEFAULT_PARITY_DOPS",
    "DEFAULT_PARITY_PRESETS",
]

FACT_TABLE = "events"
DIM_TABLE = "dims"
FACT_ROWS = 2048
GROUPS = 64
# Per-tuple pivot work: the fused predicate costs
# ``filter_tuple * COST_FACTOR`` per row, making the scan expensive
# enough that one shared pass is worth fighting for (share wins when
# w/s clears m(c-1)/(m-c)).
COST_FACTOR = 128.0
DOP = 4
# Measured makespans within 5% are a wash: either verdict counts.
TIE_TOLERANCE = 0.05
# The sweep's machine; each contexts cell overrides processors and
# contention.
SWEEP_CONFIG = RuntimeConfig.preset("cmp32")

# (label, hardware contexts, power-law contention kappa or None).
DEFAULT_CONTEXTS = (
    ("32 ctx", 32, None),
    ("8 ctx", 8, None),
    ("4 ctx k=.8", 4, 0.8),
)
DEFAULT_CONSUMERS = (2, 4, 12)
DEFAULT_SKEWS = ("uniform", "skewed")
DEFAULT_PARITY_DOPS = (1, 2, 4, 8)
DEFAULT_PARITY_PRESETS = ("laptop", "cmp32", "unbounded")


def _parallel_catalog(skew: str) -> tuple[Catalog, dict[int, int]]:
    """A fact table plus a tiny dimension keyed by the group column.

    ``skew="uniform"`` spreads ``g`` over :data:`GROUPS` groups;
    ``skew="skewed"`` lands 85% of rows in group 0, so one hash
    partition holds most of the exchange traffic. Returns the catalog
    and the group histogram (the partition-skew measurement input).
    """
    catalog = Catalog()
    schema = Schema([("g", DataType.INT), ("v", DataType.FLOAT)])
    rows = []
    counts: dict[int, int] = {}
    for state in lcg(DEFAULT_SEED, FACT_ROWS):
        if skew == "skewed" and state % 100 < 85:
            g = 0
        else:
            g = state % GROUPS
        counts[g] = counts.get(g, 0) + 1
        rows.append((g, state / LCG_MODULUS))
    catalog.create(FACT_TABLE, schema).insert_many(rows)
    dim_schema = Schema([("dg", DataType.INT), ("w", DataType.FLOAT)])
    dims = [(g, (g * 7 % 13) / 13.0) for g in range(GROUPS)]
    catalog.create(DIM_TABLE, dim_schema).insert_many(dims)
    return catalog, counts


def _agg_query(catalog: Catalog) -> Query:
    """The sweep query: one expensive fused scan under a grouped
    aggregate — scan-heavy (the sharing pivot), yet with a partition-
    wise parallel region (aggregate over a scan chain)."""
    return (
        QueryBuilder(catalog, FACT_TABLE)
        .where(ge(col("v"), lit(0.0)))  # keeps every row; carries the cost
        .with_cost_factor(COST_FACTOR)
        .agg(AggSpec("sum", "total", col("v")), AggSpec("count", "rows", None), by=("g",))
        .named("par_agg")
        .build()
    )


def _join_query(catalog: Catalog) -> Query:
    """The parity join: partition-wise hash join of fact against dim."""
    return (
        QueryBuilder(catalog, FACT_TABLE)
        .hash_join(QueryBuilder(catalog, DIM_TABLE), build_key="dg", probe_key="g")
        .named("par_join")
        .build()
    )


def _measure_arm(
    catalog: Catalog, config: RuntimeConfig, query: Query, m: int, share: bool
) -> tuple[float, list]:
    """Run m copies in one fresh session; returns (makespan, rows)."""
    session = Database.open(catalog, config)
    for i in range(m):
        session.submit(query, label=f"{query.name}#{i}", share=share)
    results = session.run_all()
    return session.now, results[0].rows


def _measured_skew(counts: dict[int, int], costs) -> tuple[float, float]:
    """(raw partition skew, work-weighted effective skew).

    Raw skew is the largest hash partition over the mean — what the
    data alone says. The *effective* skew weighs it by how much of a
    fragment's work the skewed (post-exchange) stage actually is: the
    range-partitioned scan below the exchange is balanced regardless
    of data skew, so a scan-dominated fragment barely feels the
    partition imbalance. The policy is fed the effective number — the
    honest model input for this plan shape.
    """
    loads = [0] * DOP
    for g, count in counts.items():
        loads[partition_of(g, EXCHANGE_SALT, DOP)] += count
    total = float(sum(loads)) or 1.0
    raw = max(loads) / (total / DOP)
    scan_row = costs.scan_tuple + costs.filter_tuple * COST_FACTOR + costs.exchange_tuple
    agg_row = costs.agg_update
    per_fragment = [total / DOP * scan_row + load * agg_row for load in loads]
    effective = max(per_fragment) / (sum(per_fragment) / DOP)
    return raw, max(1.0, effective)


@dataclass(frozen=True)
class ParallelCell:
    """One (contexts, skew, consumers) cell of the crossover sweep."""

    contexts_label: str
    processors: int
    contention: Optional[float]
    skew: str
    consumers: int
    share_makespan: float
    parallel_makespan: float
    raw_partition_skew: float
    effective_skew: float
    policy_mode: str
    identical: bool

    @property
    def measured_winner(self) -> str:
        return "share" if self.share_makespan <= self.parallel_makespan else "parallel"

    @property
    def margin(self) -> float:
        """Relative gap between the arms (0 = dead heat)."""
        lo = min(self.share_makespan, self.parallel_makespan)
        hi = max(self.share_makespan, self.parallel_makespan)
        return (hi - lo) / lo if lo > 0 else 0.0

    @property
    def policy_family(self) -> str:
        return "share" if self.policy_mode in ("share", "both") else "parallel"

    @property
    def policy_matches(self) -> bool:
        """The verdict agrees with the measurement (ties are a wash)."""
        return self.policy_family == self.measured_winner or self.margin < TIE_TOLERANCE


@dataclass(frozen=True)
class ParityPoint:
    """One (preset, plan, dop) point of the answer-parity matrix."""

    preset: str
    plan: str
    dop: int
    makespan: float
    identical: bool


@dataclass(frozen=True)
class FigParallelResult:
    cells: tuple[ParallelCell, ...]
    parity: tuple[ParityPoint, ...]

    def policy_accuracy(self) -> float:
        """Fraction of cells where the policy picked the measured
        winner (or the arms tied within tolerance)."""
        if not self.cells:
            return 0.0
        return sum(c.policy_matches for c in self.cells) / len(self.cells)

    def answers_identical(self) -> bool:
        """Every arm and every parity point reproduced the serial
        answer — parallelism never changed a row."""
        return all(c.identical for c in self.cells) and all(p.identical for p in self.parity)

    def parallel_wins_uncontended(self) -> bool:
        """Low skew + plentiful contexts + few consumers: the
        fragmented arm beats the shared group."""
        best = pick(
            self.cells,
            processors=max(c.processors for c in self.cells),
            skew="uniform",
            consumers=min(c.consumers for c in self.cells),
        )
        return best.parallel_makespan < best.share_makespan

    def share_wins_contended(self) -> bool:
        """Scarce, contended contexts + many consumers: the shared
        pivot beats m·dop fragments fighting for the hardware."""
        worst = pick(
            self.cells,
            processors=min(c.processors for c in self.cells),
            consumers=max(c.consumers for c in self.cells),
        )
        return worst.share_makespan < worst.parallel_makespan

    def render(self) -> str:
        cell_columns = [
            ("contexts", lambda c: c.contexts_label),
            ("skew", lambda c: c.skew),
            ("m", lambda c: c.consumers),
            ("share span", lambda c: f"{c.share_makespan:.0f}"),
            ("parallel span", lambda c: f"{c.parallel_makespan:.0f}"),
            ("winner", lambda c: c.measured_winner),
            ("part skew", lambda c: f"{c.raw_partition_skew:.2f}"),
            ("eff skew", lambda c: f"{c.effective_skew:.2f}"),
            ("policy", lambda c: c.policy_mode),
            ("match", lambda c: "yes" if c.policy_matches else "NO"),
        ]
        parity_columns = [
            ("preset", lambda p: p.preset),
            ("plan", lambda p: p.plan),
            ("dop", lambda p: p.dop),
            ("makespan", lambda p: f"{p.makespan:.0f}"),
            ("identical", lambda p: "yes" if p.identical else "NO"),
        ]
        return "\n\n".join(
            [
                block(
                    f"Share vs parallelize — crossover sweep (dop={DOP})",
                    cell_columns,
                    self.cells,
                    [
                        ("policy accuracy", f"{self.policy_accuracy():.0%}"),
                        ("parallel wins uncontended", self.parallel_wins_uncontended()),
                        ("share wins contended", self.share_wins_contended()),
                        ("answers identical", self.answers_identical()),
                    ],
                ),
                block("Answer parity — every preset, every dop", parity_columns, self.parity),
            ]
        )


def _profiled_specs(catalog: Catalog, query: Query) -> dict:
    """The query's profiled spec for the four-way policy.

    The profiler sees only the catalog, the cost model, ``page_rows``
    and ``queue_capacity`` — none of which the contexts axis changes
    (it sets ``processors`` and ``contention``) — so one profile per
    catalog serves every cell.
    """
    profiler = QueryProfiler(
        catalog,
        costs=SWEEP_CONFIG.cost_model,
        page_rows=SWEEP_CONFIG.page_rows,
        queue_capacity=SWEEP_CONFIG.queue_capacity,
    )
    profile = profiler.profile(query.plan, query.pivot_op_id, label=query.name)
    return {query.name: (profile.to_query_spec(), query.pivot_op_id)}


# ``repro experiments fig_parallel --quick`` keeps the corner cells:
# the crossover claims are asserted at the extremes of the
# context/consumer axes.
QUICK = {"consumers": (2, 12), "parity_dops": (1, 4)}


def run(
    consumers: Sequence[int] = DEFAULT_CONSUMERS,
    parity_dops: Sequence[int] = DEFAULT_PARITY_DOPS,
) -> FigParallelResult:
    catalogs = {s: _parallel_catalog(s) for s in DEFAULT_SKEWS}

    cells = []
    for skew in DEFAULT_SKEWS:
        catalog, counts = catalogs[skew]
        query = _agg_query(catalog)
        parallel_query = replace(query, dop=DOP)
        reference_rows = Database.open(catalog, SWEEP_CONFIG).run(query, label="reference").rows
        raw_skew, eff_skew = _measured_skew(counts, SWEEP_CONFIG.cost_model)
        specs = _profiled_specs(catalog, query)
        for label, c, kappa in DEFAULT_CONTEXTS:
            config = SWEEP_CONFIG.with_(processors=c, contention=kappa)
            policy = ModelGuidedPolicy(specs, contention=kappa)
            for m in consumers:
                share_span, share_rows = _measure_arm(catalog, config, query, m, share=True)
                par_span, par_rows = _measure_arm(catalog, config, parallel_query, m, share=False)
                # The four-way verdict for this cell, from the profiled spec.
                mode = policy.choose_mode(query.name, m, c, DOP, partition_skew=eff_skew).mode
                cells.append(
                    ParallelCell(
                        contexts_label=label,
                        processors=c,
                        contention=kappa,
                        skew=skew,
                        consumers=m,
                        share_makespan=share_span,
                        parallel_makespan=par_span,
                        raw_partition_skew=raw_skew,
                        effective_skew=eff_skew,
                        policy_mode=mode,
                        identical=share_rows == reference_rows and par_rows == reference_rows,
                    )
                )

    parity = []
    parity_catalog, _ = catalogs[DEFAULT_SKEWS[0]]
    for preset in DEFAULT_PARITY_PRESETS:
        config = RuntimeConfig.preset(preset)
        for plan_name, builder, ordered in (
            ("agg", _agg_query, True),
            ("join", _join_query, False),
        ):
            query = builder(parity_catalog)
            serial = Database.open(parity_catalog, config)
            reference = serial.run(query, label=f"{plan_name}-serial", share=False).rows
            for d in parity_dops:
                session = Database.open(parity_catalog, config)
                label = f"{plan_name}@dop{d}"
                rows = session.run(replace(query, dop=d), label=label, share=False).rows
                identical = rows == reference if ordered else sorted(rows) == sorted(reference)
                parity.append(ParityPoint(preset, plan_name, d, session.now, identical))

    return FigParallelResult(cells=tuple(cells), parity=tuple(parity))
