"""How wrong is the model? Auditing projections against measurements.

The paper validates its analytical model against measured speedups in
aggregate (Figure 5). The decision audit trail added with ``repro.obs``
lets us ask the sharper per-decision question: for *every* routing
decision a session makes, how far was the projected completion rate of
the chosen arm from what the simulator then measured?

This driver re-runs the fig_mem Part B consolidation flip through
audited sessions — ``m`` tenants submit the identical scan+aggregate
with ``share=None``, so the built-in advisor decides, its record lands
in ``Session.audit_log()``, and the coordinator joins each record, when
its last member finishes, with the measured latency and the pool misses
since the decision:

* **cold** — empty pool, the advisor projects the unshared tenants'
  ``io_page`` bill and says *share*;
* **warm** — prewarmed pool, the I/O term vanishes and the same
  advisor says *solo* (the scan-serialization result);
* **cold+drift** — cooperative scans with a drift bound and a declared
  consumer skew: the attach benefit is discounted by projected drift
  before the decision.

Every routing record must come back joined, and the per-cell
mean absolute projection error quantifies the model's calibration in
each regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.db import Database, RuntimeConfig
from repro.experiments.common import DEFAULT_SEED, pick, replica_catalog
from repro.experiments.fig_mem import FLIP_CONFIG, FLIP_ROWS, FLIP_TABLE, flip_query
from repro.obs.audit import AuditRecord

__all__ = ["AuditCell", "FigAuditResult", "run"]

DRIFT_SKEW = 4.0


@dataclass(frozen=True)
class AuditCell:
    """One audited flip cell: the routing records of one session."""

    name: str
    outcome: str
    records: tuple[AuditRecord, ...]
    unjoined: int
    mean_abs_error: Optional[float]
    table: str

    @property
    def all_joined(self) -> bool:
        """Every routing record of the cell's batch was joined."""
        return self.unjoined == 0 and bool(self.records)


def _run_cell(
    name: str,
    catalog,
    config: RuntimeConfig,
    tenants: int,
    warm: bool,
    cpu_skew: Optional[float] = None,
) -> AuditCell:
    session = Database.open(catalog, config)
    if warm:
        session.prewarm(FLIP_TABLE)
    query = flip_query(session, FLIP_TABLE)
    if cpu_skew is not None:
        # Declaring skew goes through advise(), which appends its own
        # (never-joined) advisor record before any routing happens.
        session.advise(query, tenants, cpu_skew=cpu_skew)
    pre_routing = len(session.audit_log())
    for t in range(tenants):
        session.submit(query, label=f"tenant{t}")
    session.run_all()
    routed = session.audit_log().records[pre_routing:]
    joined = tuple(r for r in routed if r.joined)
    errors = [abs(r.projection_error) for r in joined if r.projection_error is not None]
    return AuditCell(
        name=name,
        outcome=routed[0].outcome if routed else "?",
        records=joined,
        unjoined=len(routed) - len(joined),
        mean_abs_error=sum(errors) / len(errors) if errors else None,
        table=session.audit_log().render(joined),
    )


@dataclass(frozen=True)
class FigAuditResult:
    cells: tuple[AuditCell, ...]
    tenants: int
    processors: int

    def cell(self, name: str) -> AuditCell:
        return pick(self.cells, name=name)

    def all_joined(self) -> bool:
        """Every routing decision of every cell carries a measurement."""
        return all(cell.all_joined for cell in self.cells)

    def decision_flipped(self) -> bool:
        return self.cell("cold").outcome == "share" and self.cell("warm").outcome == "solo"

    def render(self) -> str:
        blocks = [
            f"Decision audit — projected vs measured rates, fig_mem flip "
            f"({self.tenants} tenants on {self.processors} processors)"
        ]
        for cell in self.cells:
            error = f"{cell.mean_abs_error:.1%}" if cell.mean_abs_error is not None else "n/a"
            blocks.append(
                f"[{cell.name}] outcome={cell.outcome}, "
                f"joined={len(cell.records)}, unjoined={cell.unjoined}, "
                f"mean |projection error|={error}\n{cell.table}"
            )
        blocks.append(
            f"all routing decisions joined: {self.all_joined()}; "
            f"decision flipped cold->warm: {self.decision_flipped()}"
        )
        return "\n\n".join(blocks)


# ``repro experiments fig_audit --quick``: the flip needs the full
# tenant count, so quick mode trims rows.
QUICK = {"base_rows": 3000}


def run(tenants: int = 8, processors: int = 4, base_rows: int = FLIP_ROWS) -> FigAuditResult:
    catalog = replica_catalog(FLIP_TABLE, base_rows, tenants, DEFAULT_SEED)
    plain = FLIP_CONFIG.with_(processors=processors)
    drifted = plain.with_(prefetch_depth=2, drift_bound=16, group_windows="auto")
    cells = (
        _run_cell("cold", catalog, plain, tenants, warm=False),
        _run_cell("warm", catalog, plain, tenants, warm=True),
        _run_cell("cold+drift", catalog, drifted, tenants, warm=False, cpu_skew=DRIFT_SKEW),
    )
    return FigAuditResult(cells=cells, tenants=tenants, processors=processors)
