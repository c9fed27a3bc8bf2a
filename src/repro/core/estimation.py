"""Model parameter estimation from profiled measurements (Section 3.1).

The model's inputs — per-operator ``w`` and ``s`` — are not directly
observable. What a system *can* measure is each operator's active
(busy) time during a run, together with how many units of forward
progress the run completed and how many consumers each operator fed.
Profiling a few invocations with and without work sharing yields a
system of linear equations

    ``busy_k = (w_k + s_k * consumers_k) * units``

which least squares separates into ``w_k`` and ``s_k`` (the paper:
"we then solve a system of linear equations to divide up the active
time of each operator among the different nodes of the query plan").

The key identifying observation is that varying the number of sharers
varies ``consumers`` at the pivot while leaving ``w`` fixed; two runs
with different sharer counts suffice to separate the two unknowns, and
more runs over-determine the system and average out noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt
from typing import Iterable, Sequence

from repro.errors import EstimationError

__all__ = ["Observation", "OperatorEstimate", "estimate_operator", "estimate_many"]


@dataclass(frozen=True)
class Observation:
    """One profiled run of one operator.

    Attributes
    ----------
    busy_time:
        Total time the operator was actively executing during the run.
    units:
        Units of forward progress the run completed (e.g. reference
        tuples processed, or pages at the reference stream).
    consumers:
        How many consumers the operator fed during this run (1 for
        unshared execution, the sharer count at a shared pivot).
    """

    busy_time: float
    units: float
    consumers: int = 1

    def __post_init__(self) -> None:
        if self.units <= 0:
            raise EstimationError(f"units must be > 0, got {self.units!r}")
        if self.busy_time < 0:
            raise EstimationError(f"busy_time must be >= 0, got {self.busy_time!r}")
        if self.consumers < 1:
            raise EstimationError(f"consumers must be >= 1, got {self.consumers!r}")


@dataclass(frozen=True)
class OperatorEstimate:
    """Fitted per-operator parameters and the fit's residual.

    ``residual`` is the root-mean-square error of the least-squares
    fit in busy-time-per-unit space; large residuals signal that the
    linear model (constant per-unit costs) does not describe the
    operator well.
    """

    work: float
    output_cost: float
    residual: float
    observations: int

    def p(self, consumers: int = 1) -> float:
        return self.work + self.output_cost * consumers


def estimate_operator(observations: Sequence[Observation]) -> OperatorEstimate:
    """Fit ``w`` and ``s`` for one operator from profiled runs.

    With observations at a single consumer count the system cannot
    separate ``w`` from ``s``; in that case all per-unit cost is
    attributed to ``w`` and ``s`` is reported as 0 — appropriate for
    operators that are never pivots. Observations at two or more
    distinct consumer counts identify both parameters.

    Estimates are clamped to be non-negative (negative fitted costs are
    measurement noise; the model requires ``w, s >= 0``).
    """
    if not observations:
        raise EstimationError("need at least one observation")
    n = len(observations)
    per_unit = [obs.busy_time / obs.units for obs in observations]
    consumers = [obs.consumers for obs in observations]
    mean_y = fsum(per_unit) / n

    if len(set(consumers)) == 1:
        work, output_cost = mean_y, 0.0
    else:
        # Two-parameter least squares in closed form, centred on the
        # means; every sum is exactly rounded.
        mean_x = fsum(consumers) / n
        dx = [x - mean_x for x in consumers]
        covariance = fsum(d * (y - mean_y) for d, y in zip(dx, per_unit))
        output_cost = covariance / fsum(d * d for d in dx)
        work = mean_y - output_cost * mean_x
    errors = [y - (work + output_cost * x) for x, y in zip(consumers, per_unit)]
    residual = sqrt(fsum(e * e for e in errors) / n)
    return OperatorEstimate(
        work=max(work, 0.0),
        output_cost=max(output_cost, 0.0),
        residual=residual,
        observations=n,
    )


def estimate_many(
    samples: Iterable[tuple[str, Observation]],
) -> dict[str, OperatorEstimate]:
    """Group observations by operator name and fit each one."""
    grouped: dict[str, list[Observation]] = {}
    for name, obs in samples:
        grouped.setdefault(name, []).append(obs)
    if not grouped:
        raise EstimationError("no samples provided")
    return {name: estimate_operator(obs) for name, obs in grouped.items()}
