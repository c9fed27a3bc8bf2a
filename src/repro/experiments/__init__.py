"""Experiment drivers — one module per paper figure.

* :mod:`repro.experiments.fig1` — Q6 sharing speedup vs clients/CPUs,
* :mod:`repro.experiments.fig2` — scan-heavy vs join-heavy speedups,
* :mod:`repro.experiments.fig4` — model sensitivity sweeps (Section 6),
* :mod:`repro.experiments.fig5` — model-vs-measured validation,
* :mod:`repro.experiments.fig6` — policy comparison in a closed system,
* :mod:`repro.experiments.fig_mem` — memory governance: spilling join
  sweep and the cold/warm sharing-decision flip,
* :mod:`repro.experiments.fig_scan` — cooperative scan sharing:
  elevator attach, async prefetch, scan-aware eviction,
* :mod:`repro.experiments.fig_drift` — drift-bounded elevator scans:
  throttle vs group windows under consumer-speed skew,
* :mod:`repro.experiments.fig_sort` — grant-governed external sort
  with prefetched spill read-back,
* :mod:`repro.experiments.fig_parallel` — share vs parallelize:
  exchange-partitioned fragments against pivot-shared groups, and the
  four-way policy's accuracy on the measured crossover,
* :mod:`repro.experiments.fig_server` — open-system serving: goodput
  and tail latency across arrival rates and sharing policies, and the
  measured load point where sharing flips from straggler factory to
  win,
* :mod:`repro.experiments.section4_example` — the Q6 worked example.

Run them via ``repro experiments`` (``python -m repro.cli
experiments``; ``repro experiments list`` prints the registry) or the
modules' ``python -m`` entry points; ``docs/experiments.md`` documents
every driver — the paper claim it reproduces, its knobs, and how to
read the output.
"""

from repro.experiments import (
    fig1,
    fig2,
    fig4,
    fig5,
    fig6,
    fig_drift,
    fig_mem,
    fig_parallel,
    fig_scan,
    fig_server,
    fig_sort,
    section4_example,
)

__all__ = [
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig_drift",
    "fig_mem",
    "fig_parallel",
    "fig_scan",
    "fig_server",
    "fig_sort",
    "section4_example",
]
