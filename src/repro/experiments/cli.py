"""The experiment registry and runner behind ``repro experiments``.

:mod:`repro.cli` mounts :func:`add_arguments` and :func:`run` as its
``experiments`` subcommand (``repro experiments list`` prints the
registry, ``repro experiments all`` runs everything and takes
minutes). ``--quick`` runs each figure with its module's ``QUICK``
arguments — trimmed axes, so it completes in seconds; full runs use
the paper's 1-48 client range.
"""

from __future__ import annotations

import argparse
import time
from types import ModuleType
from typing import NamedTuple

from repro.experiments import (
    fig1,
    fig2,
    fig4,
    fig5,
    fig6,
    fig_audit,
    fig_drift,
    fig_mem,
    fig_parallel,
    fig_scan,
    fig_server,
    fig_sort,
    section4_example,
)

__all__ = ["add_arguments", "run", "main"]


class _Experiment(NamedTuple):
    # ``module.run(**kwargs).render()`` is the figure; ``module.QUICK``
    # holds the kwargs of a ``--quick`` run.
    module: ModuleType
    description: str


_EXPERIMENTS = {
    "fig1": _Experiment(fig1, "Figure 1: sharing speedup vs clients, few cores"),
    "fig2": _Experiment(fig2, "Figure 2: sharing turns harmful on many cores"),
    "fig4": _Experiment(fig4, "Figure 4: model-predicted speedup surfaces"),
    "fig5": _Experiment(fig5, "Figure 5: model vs measured validation"),
    "fig6": _Experiment(fig6, "Figure 6: policy throughput across workload mixes"),
    "fig_audit": _Experiment(
        fig_audit, "Decision audit: projected vs measured rates over the fig_mem flip"
    ),
    "fig_mem": _Experiment(
        fig_mem, "Memory governance: spilling join sweep + cold/warm sharing flip"
    ),
    "fig_parallel": _Experiment(
        fig_parallel, "Share vs parallelize: exchange-partitioned fragments + the four-way policy"
    ),
    "fig_drift": _Experiment(
        fig_drift, "Drift-bounded elevator scans: throttle vs group windows under consumer skew"
    ),
    "fig_scan": _Experiment(
        fig_scan, "Cooperative scans: elevator sharing, async prefetch, scan-aware eviction"
    ),
    "fig_server": _Experiment(
        fig_server, "Open-system serving: goodput/p99 across load, and the sharing flip point"
    ),
    "fig_sort": _Experiment(
        fig_sort, "External sort: grant-governed runs/merges + prefetched spill read-back"
    ),
    "section4": _Experiment(section4_example, "Section 4 worked example of the analytical model"),
}


def _render_list() -> str:
    width = max(len(name) for name in _EXPERIMENTS)
    lines = ["registered experiments:"]
    lines.extend(
        f"  {name:<{width}}  {exp.description}" for name, exp in sorted(_EXPERIMENTS.items())
    )
    return "\n".join(lines)


def add_arguments(parser) -> None:
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*sorted(_EXPERIMENTS), "all", "list"],
        help="which figures to regenerate ('list' prints the registry)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced client counts for a fast sanity run",
    )


def run(args) -> int:
    if "list" in args.experiments:
        print(_render_list())
        if set(args.experiments) == {"list"}:
            return 0

    names = (
        sorted(_EXPERIMENTS)
        if "all" in args.experiments
        else [n for n in dict.fromkeys(args.experiments) if n != "list"]
    )
    for name in names:
        started = time.time()
        module = _EXPERIMENTS[name].module
        output = module.run(**(module.QUICK if args.quick else {})).render()
        elapsed = time.time() - started
        print(output)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description="Regenerate figures from 'To Share or Not To Share?' (VLDB 2007).",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
