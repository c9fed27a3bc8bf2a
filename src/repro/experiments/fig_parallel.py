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

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.db import Database, Query, QueryBuilder, RuntimeConfig
from repro.engine import AggSpec
from repro.engine.expressions import col, ge, lit
from repro.engine.operators.partitioning import partition_of
from repro.engine.parallel import EXCHANGE_SALT
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.report import format_table
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


def _parallel_catalog(
    base_rows: int, skew: str, seed: int
) -> tuple[Catalog, dict[int, int]]:
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
    state = seed & 0x7FFFFFFF or 1
    for _ in range(base_rows):
        # Park-Miller LCG: deterministic, independent of PYTHONHASHSEED.
        state = (state * 48271) % 2147483647
        if skew == "skewed" and state % 100 < 85:
            g = 0
        else:
            g = state % GROUPS
        counts[g] = counts.get(g, 0) + 1
        rows.append((g, state / 2147483647.0))
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
        .agg(
            AggSpec("sum", "total", col("v")),
            AggSpec("count", "rows", None),
            by=("g",),
        )
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


def _with_dop(query: Query, dop: int) -> Query:
    from dataclasses import replace

    return replace(query, dop=dop)


def _measure_arm(
    catalog: Catalog,
    config: RuntimeConfig,
    query: Query,
    m: int,
    share: bool,
) -> tuple[float, list]:
    """Run m copies in one fresh session; returns (makespan, rows)."""
    session = Database.open(catalog, config)
    for i in range(m):
        session.submit(query, label=f"{query.name}#{i}", share=share)
    results = session.run_all()
    return session.now, results[0].rows


def _partition_loads(counts: dict[int, int], dop: int) -> list[int]:
    loads = [0] * dop
    for g, count in counts.items():
        loads[partition_of(g, EXCHANGE_SALT, dop)] += count
    return loads


def _measured_skew(counts: dict[int, int], dop: int, costs) -> tuple[float, float]:
    """(raw partition skew, work-weighted effective skew).

    Raw skew is the largest hash partition over the mean — what the
    data alone says. The *effective* skew weighs it by how much of a
    fragment's work the skewed (post-exchange) stage actually is: the
    range-partitioned scan below the exchange is balanced regardless
    of data skew, so a scan-dominated fragment barely feels the
    partition imbalance. The policy is fed the effective number — the
    honest model input for this plan shape.
    """
    dop = max(1, dop)
    loads = _partition_loads(counts, dop)
    total = float(sum(loads)) or 1.0
    raw = max(loads) / (total / dop)
    scan_row = (
        costs.scan_tuple
        + costs.filter_tuple * COST_FACTOR
        + costs.exchange_tuple
    )
    agg_row = costs.agg_update
    per_fragment = [total / dop * scan_row + load * agg_row for load in loads]
    effective = max(per_fragment) / (sum(per_fragment) / dop)
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
    dop: int

    def policy_accuracy(self) -> float:
        """Fraction of cells where the policy picked the measured
        winner (or the arms tied within tolerance)."""
        if not self.cells:
            return 0.0
        return sum(c.policy_matches for c in self.cells) / len(self.cells)

    def answers_identical(self) -> bool:
        """Every arm and every parity point reproduced the serial
        answer — parallelism never changed a row."""
        return all(c.identical for c in self.cells) and all(
            p.identical for p in self.parity
        )

    def parallel_wins_uncontended(self) -> bool:
        """Low skew + plentiful contexts + few consumers: the
        fragmented arm beats the shared group."""
        best = self._cell(max(c.processors for c in self.cells), "uniform", min(c.consumers for c in self.cells))
        return best is not None and best.parallel_makespan < best.share_makespan

    def share_wins_contended(self) -> bool:
        """Scarce, contended contexts + many consumers: the shared
        pivot beats m·dop fragments fighting for the hardware."""
        worst = self._cell(min(c.processors for c in self.cells), None, max(c.consumers for c in self.cells))
        return worst is not None and worst.share_makespan < worst.parallel_makespan

    def crossover_observed(self) -> bool:
        return self.parallel_wins_uncontended() and self.share_wins_contended()

    def _cell(self, processors: int, skew: Optional[str], consumers: int):
        for cell in self.cells:
            if (
                cell.processors == processors
                and cell.consumers == consumers
                and (skew is None or cell.skew == skew)
            ):
                return cell
        return None

    def render(self) -> str:
        headers = [
            "contexts",
            "skew",
            "m",
            "share span",
            "parallel span",
            "winner",
            "part skew",
            "eff skew",
            "policy",
            "match",
        ]
        rows = [
            [
                c.contexts_label,
                c.skew,
                c.consumers,
                f"{c.share_makespan:.0f}",
                f"{c.parallel_makespan:.0f}",
                c.measured_winner,
                f"{c.raw_partition_skew:.2f}",
                f"{c.effective_skew:.2f}",
                c.policy_mode,
                "yes" if c.policy_matches else "NO",
            ]
            for c in self.cells
        ]
        title = f"Share vs parallelize — crossover sweep (dop={self.dop})"
        summary = (
            f"  policy accuracy: {self.policy_accuracy():.0%};"
            f"  parallel wins uncontended: {self.parallel_wins_uncontended()};"
            f"  share wins contended: {self.share_wins_contended()};"
            f"  answers identical: {self.answers_identical()}"
        )
        blocks = [f"{title}\n{format_table(headers, rows)}\n{summary}"]

        headers = ["preset", "plan", "dop", "makespan", "identical"]
        rows = [
            [p.preset, p.plan, p.dop, f"{p.makespan:.0f}", "yes" if p.identical else "NO"]
            for p in self.parity
        ]
        blocks.append(
            "Answer parity — every preset, every dop\n"
            + format_table(headers, rows)
        )
        return "\n\n".join(blocks)


def _policy_mode(
    catalog: Catalog,
    query: Query,
    config: RuntimeConfig,
    m: int,
    dop: int,
    effective_skew: float,
) -> str:
    """The four-way verdict for one cell, from a profiled spec."""
    profiler = QueryProfiler(
        catalog,
        costs=config.cost_model,
        page_rows=config.page_rows,
        queue_capacity=config.queue_capacity,
    )
    profile = profiler.profile(query.plan, query.pivot_op_id, label=query.name)
    policy = ModelGuidedPolicy(
        {query.name: (profile.to_query_spec(), query.pivot_op_id)},
        contention=config.contention,
    )
    projection = policy.choose_mode(
        query.name,
        m,
        config.processors,
        dop,
        partition_skew=effective_skew,
    )
    return projection.mode


# ``repro experiments fig_parallel --quick`` keeps the corner cells:
# the crossover claims are asserted at the extremes of the
# context/consumer axes.
QUICK = {"consumers": (2, 12), "parity_dops": (1, 4)}


def run(
    contexts: Sequence[tuple] = DEFAULT_CONTEXTS,
    consumers: Sequence[int] = DEFAULT_CONSUMERS,
    skews: Sequence[str] = DEFAULT_SKEWS,
    dop: int = DOP,
    parity_dops: Sequence[int] = DEFAULT_PARITY_DOPS,
    parity_presets: Sequence[str] = DEFAULT_PARITY_PRESETS,
    base_rows: int = FACT_ROWS,
    seed: int = DEFAULT_SEED,
) -> FigParallelResult:
    catalogs = {s: _parallel_catalog(base_rows, s, seed) for s in skews}

    cells = []
    for skew in skews:
        catalog, counts = catalogs[skew]
        query = _agg_query(catalog)
        parallel_query = _with_dop(query, dop)
        base_config = RuntimeConfig.preset("cmp32")
        reference_rows = Database.open(catalog, base_config).run(
            query, label="reference"
        ).rows
        raw_skew, eff_skew = _measured_skew(counts, dop, base_config.cost_model)
        for label, c, kappa in contexts:
            config = base_config.with_(processors=c, contention=kappa)
            for m in consumers:
                share_span, share_rows = _measure_arm(
                    catalog, config, query, m, share=True
                )
                par_span, par_rows = _measure_arm(
                    catalog, config, parallel_query, m, share=False
                )
                mode = _policy_mode(catalog, query, config, m, dop, eff_skew)
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
                        identical=(
                            share_rows == reference_rows
                            and par_rows == reference_rows
                        ),
                    )
                )

    parity = []
    parity_catalog, _ = catalogs[skews[0]]
    for preset in parity_presets:
        config = RuntimeConfig.preset(preset)
        for plan_name, builder, ordered in (
            ("agg", _agg_query, True),
            ("join", _join_query, False),
        ):
            query = builder(parity_catalog)
            reference = Database.open(parity_catalog, config).run(
                query, label=f"{plan_name}-serial", share=False
            ).rows
            for d in parity_dops:
                session = Database.open(parity_catalog, config)
                result = session.run(
                    _with_dop(query, d), label=f"{plan_name}@dop{d}", share=False
                )
                rows = result.rows
                identical = (
                    rows == reference if ordered else sorted(rows) == sorted(reference)
                )
                parity.append(
                    ParityPoint(
                        preset=preset,
                        plan=plan_name,
                        dop=d,
                        makespan=session.now,
                        identical=identical,
                    )
                )

    return FigParallelResult(cells=tuple(cells), parity=tuple(parity), dop=dop)
