"""Figure 1: sharing the TPC-H Q6 scan vs. never sharing.

"A different number of concurrent clients (from one to 48) submit a
simple data warehousing query that is dominated by a scan on a large,
in-memory table (query 6) ... for more than one core, work sharing is
harmful for this specific workload."

The experiment measures, for each processor count in {1, 2, 8, 32} and
each client count, the speedup of shared over unshared execution of m
identical Q6 instances. Expected shape: the 1-CPU line rises toward
~1.8-2x; every other line falls below 1 and the 32-CPU line collapses
toward ~0.1 (the paper's "10x performance difference").
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
from repro.experiments.report import ascii_chart, series_table

__all__ = ["Fig1Result", "run", "DEFAULT_CLIENTS"]

DEFAULT_CLIENTS = (1, 2, 4, 8, 16, 32, 48)


@dataclass(frozen=True)
class Fig1Result:
    series: tuple[SpeedupSeries, ...]

    def line(self, processors: int) -> SpeedupSeries:
        return pick(self.series, processors=processors)

    def render(self) -> str:
        chart = ascii_chart(
            {f"{s.processors}cpu": list(s.speedups) for s in self.series},
            x_values=list(self.series[0].clients),
        )
        return (
            "Figure 1 — speedup of sharing the Q6 scan vs never-share\n"
            + series_table(list(self.series))
            + "\n\n"
            + chart
        )


# ``repro experiments fig1 --quick``: a trimmed client axis.
QUICK = {"clients": (1, 2, 4, 8, 16)}


def run(
    clients: Sequence[int] = DEFAULT_CLIENTS,
    processor_counts: Sequence[int] = PAPER_PROCESSOR_COUNTS,
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
) -> Fig1Result:
    catalog = shared_catalog(scale_factor, seed)
    series = tuple(speedup_series(catalog, "q6", n, clients) for n in processor_counts)
    return Fig1Result(series=series)
