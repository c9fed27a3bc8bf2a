"""Figure 5: validating the model against engine measurements.

For every query in the suite and every processor count, the profiled
model's predicted speedup ``Z(m, n)`` is compared against the staged
engine's measured speedup. The paper reports maximum/average errors of
22%/5.7% for the scan-heavy queries and 30%/5.9% for the join-heavy
queries, and — the property that actually matters — that "the model's
recommendations on the benefits of sharing are nearly always correct"
as a binary decision.

The reproduction computes the same three statistics: per-class maximum
relative error, average relative error, and binary-decision agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.model import sharing_benefit
from repro.core.phases import PhasedQuery
from repro.core.spec import sharers
from repro.experiments.common import (
    DEFAULT_SCALE_FACTOR,
    DEFAULT_SEED,
    PAPER_PROCESSOR_COUNTS,
    batch_speedup,
    shared_catalog,
)
from repro.experiments.report import block
from repro.profiling import QueryProfiler
from repro.tpch.queries import build

__all__ = ["ValidationPoint", "Fig5Result", "run", "DEFAULT_CLIENTS"]

DEFAULT_CLIENTS = (2, 4, 8, 16, 32, 48)
_DECISION_BAND = 0.10  # |Z - 1| below this is "indifferent", not a miss


@dataclass(frozen=True)
class ValidationPoint:
    query: str
    kind: str
    processors: int
    clients: int
    predicted: float
    measured: float
    predicted_phased: float = float("nan")

    @property
    def relative_error(self) -> float:
        return abs(self.predicted - self.measured) / self.measured

    @property
    def phased_relative_error(self) -> float:
        return abs(self.predicted_phased - self.measured) / self.measured

    @property
    def decision_agrees(self) -> bool:
        """Binary share/don't-share agreement, with an indifference
        band around Z = 1 where either decision costs almost nothing."""
        if abs(self.predicted - 1.0) < _DECISION_BAND or (
            abs(self.measured - 1.0) < _DECISION_BAND
        ):
            return True
        return (self.predicted > 1.0) == (self.measured > 1.0)


@dataclass(frozen=True)
class Fig5Result:
    points: tuple[ValidationPoint, ...]

    def points_for(self, kind: str) -> list[ValidationPoint]:
        return [p for p in self.points if p.kind == kind]

    def max_error(self, kind: str) -> float:
        return max(p.relative_error for p in self.points_for(kind))

    def avg_error(self, kind: str) -> float:
        pts = self.points_for(kind)
        return sum(p.relative_error for p in pts) / len(pts)

    def avg_phased_error(self, kind: str) -> float:
        """Average error of the Section 5.2 phase-aware predictions
        (a beyond-paper extension; the paper validates the simple
        fully-pipelined model only)."""
        pts = self.points_for(kind)
        return sum(p.phased_relative_error for p in pts) / len(pts)

    def decision_accuracy(self) -> float:
        return sum(p.decision_agrees for p in self.points) / len(self.points)

    def render(self) -> str:
        columns = [
            ("query", lambda p: p.query),
            ("cpus", lambda p: p.processors),
            ("clients", lambda p: p.clients),
            ("predicted Z", lambda p: p.predicted),
            ("measured Z", lambda p: p.measured),
            ("err%", lambda p: 100 * p.relative_error),
        ]
        table = block("Figure 5 — model validation (predicted vs measured Z)", columns, self.points)
        return (
            f"{table}\n"
            f"scan-heavy: max err {100 * self.max_error('scan-heavy'):.1f}% "
            f"avg {100 * self.avg_error('scan-heavy'):.1f}%  "
            f"(paper: 22% / 5.7%)\n"
            f"join-heavy: max err {100 * self.max_error('join-heavy'):.1f}% "
            f"avg {100 * self.avg_error('join-heavy'):.1f}%  "
            f"(paper: 30% / 5.9%)\n"
            f"join-heavy with phase-aware model (extension): "
            f"avg {100 * self.avg_phased_error('join-heavy'):.1f}%\n"
            f"binary share/don't-share agreement: "
            f"{100 * self.decision_accuracy():.0f}%"
        )


# ``repro experiments fig5 --quick``: a trimmed client axis.
QUICK = {"clients": (2, 8, 16)}


def run(
    clients: Sequence[int] = DEFAULT_CLIENTS,
    processor_counts: Sequence[int] = PAPER_PROCESSOR_COUNTS,
    queries: Sequence[str] = ("q1", "q6", "q4", "q13"),
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
) -> Fig5Result:
    catalog = shared_catalog(scale_factor, seed)
    profiler = QueryProfiler(catalog)
    points: list[ValidationPoint] = []
    for name in queries:
        query = build(name, catalog)
        profile = profiler.profile(query.plan, query.pivot, label=name)
        spec = profile.to_query_spec()
        phased = PhasedQuery(profile.to_query_spec(mark_blocking=True))
        for n in processor_counts:
            for m in clients:
                group = sharers(spec, m, name)
                predicted = sharing_benefit(group, query.pivot, n, closed_system=True)
                predicted_phased = phased.sharing_benefit(query.pivot, m, n)
                measured = batch_speedup(catalog, query, m, n)
                points.append(
                    ValidationPoint(
                        query=name,
                        kind=query.kind,
                        processors=n,
                        clients=m,
                        predicted=predicted,
                        measured=measured,
                        predicted_phased=predicted_phased,
                    )
                )
    return Fig5Result(points=tuple(points))
