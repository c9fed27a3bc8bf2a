"""Section 4.4's worked example, regenerated from the library.

The paper plugs TPC-H Q6's profiled parameters (w = 9.66, s = 10.34
for the scan; p = 0.97 for the aggregate; k = 1) into the model and
derives closed forms. This driver evaluates the same quantities
through :mod:`repro.core` and prints them next to the paper's numbers
— a golden end-to-end check of the model implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import metrics
from repro.core.model import shared_metrics, shared_rate, unshared_rate
from repro.core.spec import QuerySpec, chain, op, sharers
from repro.experiments.common import PAPER_PROCESSOR_COUNTS
from repro.experiments.report import format_table

__all__ = ["Section4Example", "run"]

SCAN_W = 9.66
SCAN_S = 10.34
AGG_P = 0.97
CLIENT_COUNTS = (1, 4, 16, 48)


@dataclass(frozen=True)
class Section4Example:
    p_max: float
    total_work_per_query: float
    rows: tuple

    def render(self) -> str:
        header = (
            "Section 4.4 worked example — TPC-H Q6 "
            f"(w={SCAN_W}, s={SCAN_S}, agg p={AGG_P})\n"
            f"p_max = {self.p_max:g} (paper: 20)\n"
            f"u' per query = {self.total_work_per_query:g} (paper: ~21)\n"
        )
        return header + format_table(
            ["m", "n", "x_unshared", "paper form", "x_shared", "paper form"],
            self.rows,
        )


def paper_unshared(m: int, n: int) -> float:
    """min(M/20, n/21) — the paper's (rounded) closed form."""
    return min(m / 20.0, n / 21.0)


def paper_shared(m: int, n: int) -> float:
    """min(1/(9.66/M + 10.34), n/(9.66/M + 11.31))."""
    return min(1.0 / (9.66 / m + 10.34), n / (9.66 / m + 11.31))


def q6_spec() -> QuerySpec:
    return QuerySpec(chain(op("scan", SCAN_W, SCAN_S), op("agg", AGG_P)), label="q6")


# ``repro experiments section4 --quick`` is the full run.
QUICK = {}


def run() -> Section4Example:
    spec = q6_spec()
    rows = []
    for m in CLIENT_COUNTS:
        group = sharers(spec, m, "q6")
        for n in PAPER_PROCESSOR_COUNTS:
            rows.append(
                (
                    m,
                    n,
                    unshared_rate(group, n),
                    paper_unshared(m, n),
                    shared_rate(group, "scan", n),
                    paper_shared(m, n),
                )
            )
    shared = shared_metrics(sharers(spec, 4, "q6"), "scan")
    assert shared.p_max == SCAN_W + 4 * SCAN_S
    return Section4Example(
        p_max=metrics.p_max(spec),
        total_work_per_query=metrics.total_work(spec),
        rows=tuple(rows),
    )
