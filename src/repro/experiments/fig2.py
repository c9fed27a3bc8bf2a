"""Figure 2: measured sharing speedups, scan-heavy vs join-heavy.

Left panel: Q1 and Q6 sharing at the scan stage — speedups up to ~1.8x
on a uniprocessor, harmful as processors increase. Right panel: Q4 and
Q13 sharing at the join — "work sharing is always beneficial for the
join-heavy queries", with speedups growing with the client count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import (
    DEFAULT_SCALE_FACTOR,
    DEFAULT_SEED,
    PAPER_PROCESSOR_COUNTS,
    SpeedupSeries,
    pick,
    shared_catalog,
    speedup_series,
)
from repro.experiments.report import series_table

__all__ = ["Fig2Result", "run", "SCAN_HEAVY", "JOIN_HEAVY", "DEFAULT_CLIENTS"]

SCAN_HEAVY = ("q1", "q6")
JOIN_HEAVY = ("q4", "q13")
DEFAULT_CLIENTS = (1, 2, 4, 8, 16, 32, 48)


@dataclass(frozen=True)
class Fig2Result:
    scan_heavy: tuple[SpeedupSeries, ...]
    join_heavy: tuple[SpeedupSeries, ...]

    def line(self, query: str, processors: int) -> SpeedupSeries:
        return pick(self.scan_heavy + self.join_heavy, query=query, processors=processors)

    def render(self) -> str:
        return (
            "Figure 2 (left) — scan-heavy sharing speedups\n"
            + series_table(list(self.scan_heavy))
            + "\n\nFigure 2 (right) — join-heavy sharing speedups\n"
            + series_table(list(self.join_heavy))
        )


# ``repro experiments fig2 --quick``: a trimmed client axis.
QUICK = {"clients": (1, 2, 4, 8, 16)}


def run(
    clients: Sequence[int] = DEFAULT_CLIENTS,
    processor_counts: Sequence[int] = PAPER_PROCESSOR_COUNTS,
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
) -> Fig2Result:
    catalog = shared_catalog(scale_factor, seed)
    scan_series = tuple(
        speedup_series(catalog, name, n, clients) for name in SCAN_HEAVY for n in processor_counts
    )
    join_series = tuple(
        speedup_series(catalog, name, n, clients) for name in JOIN_HEAVY for n in processor_counts
    )
    return Fig2Result(scan_heavy=scan_series, join_heavy=join_series)
