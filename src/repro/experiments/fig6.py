"""Figure 6: always-share vs never-share vs model-guided policies.

A closed system of 20 clients submits a mix of Q1 (scan-heavy) and Q4
(join-heavy); the fraction of Q4 varies from 0% to 100%. Two machine
sizes: 2 processors (left panel) and 32 processors (right panel).

Paper's findings, which are the target shapes here:

* 2 CPUs: sharing is always beneficial, so always-share is best and
  the model-guided policy closely tracks it; never-share falls behind
  (and worsens) as the Q4 fraction rises.
* 32 CPUs: always-share collapses (the paper: 80 q/min vs never-share's
  165) because "the penalty for sharing the wrong queries outweighs
  the benefit of sharing the right ones"; the model-guided policy
  matches or beats both at every mix — the headline +20% over
  never-share and 2.5x over always-share on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.common import DEFAULT_SCALE_FACTOR, DEFAULT_SEED, pick, shared_catalog
from repro.experiments.report import block
from repro.policies import AlwaysShare, ModelGuidedPolicy, NeverShare
from repro.profiling import QueryProfiler
from repro.tpch.queries import build
from repro.workload import WorkloadMix, run_closed_system

__all__ = ["Fig6Cell", "Fig6Result", "run", "DEFAULT_FRACTIONS"]

DEFAULT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
# One simulated-time unit is one abstract cost unit; the scaling below
# renders throughput in "queries/min"-like magnitudes for readability.
THROUGHPUT_SCALE = 1e6
POLICIES = ("always", "model", "never")


@dataclass(frozen=True)
class Fig6Cell:
    policy: str
    processors: int
    q4_fraction: float
    throughput: float
    utilization: float


@dataclass(frozen=True)
class Fig6Result:
    cells: tuple[Fig6Cell, ...]
    n_clients: int

    def throughput(self, policy: str, processors: int, q4_fraction: float) -> float:
        return pick(
            self.cells, policy=policy, processors=processors, q4_fraction=q4_fraction
        ).throughput

    def panel(self, processors: int) -> Mapping[str, list[float]]:
        return {
            policy: [
                cell.throughput
                for cell in self.cells
                if cell.policy == policy and cell.processors == processors
            ]
            for policy in POLICIES
        }

    def average_ratio(self, processors: int, policy_a: str, policy_b: str) -> float:
        """Mean over mixes of throughput(policy_a)/throughput(policy_b)."""
        a = self.panel(processors)[policy_a]
        b = self.panel(processors)[policy_b]
        ratios = [x / y for x, y in zip(a, b)]
        return sum(ratios) / len(ratios)

    def render(self) -> str:
        blocks = []
        fractions = sorted({cell.q4_fraction for cell in self.cells})
        for n in sorted({cell.processors for cell in self.cells}):
            columns = [("q4 fraction", lambda frac: f"{frac:.0%}")]
            columns += [
                (policy, lambda frac, policy=policy: self.throughput(policy, n, frac))
                for policy in POLICIES
            ]
            never = self.average_ratio(n, "model", "never")
            always = self.average_ratio(n, "model", "always")
            title = f"Figure 6 — throughput by policy, {self.n_clients} clients on {n} processors"
            claims = [
                ("model vs never (avg)", f"{never:.2f}x"),
                ("model vs always (avg)", f"{always:.2f}x"),
            ]
            blocks.append(block(title, columns, fractions, claims))
        return "\n\n".join(blocks)


# ``repro experiments fig6 --quick``: the ends and middle of the mix
# axis over half the measurement window.
QUICK = {"fractions": (0.0, 0.5, 1.0), "window": 400_000.0}


def run(
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    processor_counts: Sequence[int] = (2, 32),
    n_clients: int = 20,
    warmup: float = 200_000.0,
    window: float = 800_000.0,
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
) -> Fig6Result:
    # warmup/window are *simulated* time calibrated at scale 0.001;
    # service times grow linearly with the database, so the window
    # must stretch with it or a large scale starves the steady-state
    # measurement of completions entirely.
    stretch = scale_factor / 0.001
    warmup *= stretch
    window *= stretch
    catalog = shared_catalog(scale_factor, seed)
    profiler = QueryProfiler(catalog)
    specs = {}
    for name in ("q1", "q4"):
        query = build(name, catalog)
        profile = profiler.profile(query.plan, query.pivot, label=name)
        specs[name] = (profile.to_query_spec(), query.pivot)

    cells: list[Fig6Cell] = []
    for processors in processor_counts:
        for fraction in fractions:
            mix = WorkloadMix.two_way("q1", "q4", fraction, seed=seed)
            for policy in (AlwaysShare(), ModelGuidedPolicy(specs), NeverShare()):
                result = run_closed_system(
                    catalog,
                    policy,
                    mix,
                    n_clients=n_clients,
                    processors=processors,
                    warmup=warmup,
                    window=window,
                )
                cells.append(
                    Fig6Cell(
                        policy=policy.name,
                        processors=processors,
                        q4_fraction=fraction,
                        throughput=result.throughput * THROUGHPUT_SCALE,
                        utilization=result.utilization,
                    )
                )
    return Fig6Result(cells=tuple(cells), n_clients=n_clients)
