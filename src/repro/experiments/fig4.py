"""Figure 4: model-predicted sensitivity sweeps (Section 6).

Three panels over the Figure-3 baseline query (bottom p=10, pivot
w=6 / s=1, top p=10):

* left — available processing power n in {1, 4, 8, 12, 16, 24, 32};
* center — the pivot's per-consumer output cost s in
  {0, .25, .5, 1, 2, 4} on a 32-core machine;
* right — the fraction of work below the pivot, moving 0..5 balanced
  p=8 stages below it on an 8-core machine (28%..98% eliminated).

All three panels are pure model evaluations — no engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.sensitivity import (
    SweepResult,
    staged_query,
    sweep_output_cost,
    sweep_processors,
    sweep_work_below_pivot,
    work_eliminated_fraction,
)
from repro.experiments.report import format_table

__all__ = ["Fig4Result", "run", "DEFAULT_CLIENTS"]

DEFAULT_CLIENTS = tuple(range(1, 41))


def _stages_label(stages: float) -> str:
    eliminated = work_eliminated_fraction(staged_query(int(stages)), "pivot")
    return f"{int(stages)}/5 ({eliminated:.0%})"


@dataclass(frozen=True)
class Fig4Result:
    processors: SweepResult
    output_cost: SweepResult
    work_below: SweepResult

    def render(self) -> str:
        blocks = []
        for side, axis, sweep, key_fmt in (
            ("left", "processor count", self.processors, lambda v: f"{int(v)}cpu"),
            ("center", "pivot output cost s (32 cpus)", self.output_cost, lambda v: f"s={v:g}"),
            ("right", "stages below pivot (8 cpus)", self.work_below, _stages_label),
        ):
            keys = sorted(sweep.series)
            headers = ["clients"] + [key_fmt(k) for k in keys]
            rows = [[m] + [sweep.series[k][i] for k in keys] for i, m in enumerate(sweep.clients)]
            title = f"Figure 4 ({side}) — Z vs clients by {axis}"
            blocks.append(title + "\n" + format_table(headers, rows))
        return "\n\n".join(blocks)


# ``repro experiments fig4 --quick``: a trimmed client axis.
QUICK = {"clients": tuple(range(1, 21))}


def run(clients: Sequence[int] = DEFAULT_CLIENTS) -> Fig4Result:
    return Fig4Result(
        processors=sweep_processors(clients=clients),
        output_cost=sweep_output_cost(clients=clients),
        work_below=sweep_work_below_pivot(clients=clients),
    )
