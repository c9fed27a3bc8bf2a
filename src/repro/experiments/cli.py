"""The experiment registry and runner behind ``repro experiments``.

:mod:`repro.cli` mounts :func:`add_arguments` and :func:`run` as its
``experiments`` subcommand (``repro experiments list`` prints the
registry, ``repro experiments all`` runs everything and takes
minutes). ``--quick`` trims the client axes so each figure completes
in seconds; full runs use the paper's 1-48 client range.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, NamedTuple

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

_QUICK_CLIENTS = (1, 2, 4, 8, 16)
_QUICK_VALIDATION_CLIENTS = (2, 8, 16)


def _run_fig1(quick: bool) -> str:
    clients = _QUICK_CLIENTS if quick else fig1.DEFAULT_CLIENTS
    return fig1.run(clients=clients).render()


def _run_fig2(quick: bool) -> str:
    clients = _QUICK_CLIENTS if quick else fig2.DEFAULT_CLIENTS
    return fig2.run(clients=clients).render()


def _run_fig4(quick: bool) -> str:
    clients = tuple(range(1, 21)) if quick else fig4.DEFAULT_CLIENTS
    return fig4.run(clients=clients).render()


def _run_fig5(quick: bool) -> str:
    clients = _QUICK_VALIDATION_CLIENTS if quick else fig5.DEFAULT_CLIENTS
    return fig5.run(clients=clients).render()


def _run_fig6(quick: bool) -> str:
    fractions = (0.0, 0.5, 1.0) if quick else fig6.DEFAULT_FRACTIONS
    window = 400_000.0 if quick else 800_000.0
    return fig6.run(fractions=fractions, window=window).render()


def _run_fig_mem(quick: bool) -> str:
    work_mems = (16, 4) if quick else fig_mem.DEFAULT_WORK_MEMS
    tenants = 8 if quick else 16
    processors = 4 if quick else 8
    return fig_mem.run(work_mems=work_mems, tenants=tenants,
                       processors=processors).render()


def _run_fig_scan(quick: bool) -> str:
    consumers = (2, 4) if quick else fig_scan.DEFAULT_CONSUMERS
    staggers = (0.0, 0.5) if quick else fig_scan.DEFAULT_STAGGERS
    depths = (0, 2) if quick else fig_scan.DEFAULT_PREFETCH_DEPTHS
    return fig_scan.run(consumers=consumers, staggers=staggers,
                        prefetch_depths=depths).render()


def _run_fig_drift(quick: bool) -> str:
    # Quick mode keeps the top-skew cell: the degradation claims are
    # asserted there (mid-skew cells only show the trend).
    skews = (1, 64) if quick else fig_drift.DEFAULT_SKEWS
    return fig_drift.run(skews=skews).render()


def _run_fig_sort(quick: bool) -> str:
    work_mems = (128, 8, 2) if quick else fig_sort.DEFAULT_WORK_MEMS
    depths = (0, 2) if quick else fig_sort.DEFAULT_PREFETCH_DEPTHS
    return fig_sort.run(work_mems=work_mems, prefetch_depths=depths).render()


def _run_fig_parallel(quick: bool) -> str:
    # Quick mode keeps the corner cells: the crossover claims are
    # asserted at the extremes of the context/consumer axes.
    consumers = (2, 12) if quick else fig_parallel.DEFAULT_CONSUMERS
    dops = (1, 4) if quick else fig_parallel.DEFAULT_PARITY_DOPS
    return fig_parallel.run(consumers=consumers, parity_dops=dops).render()


def _run_fig_audit(quick: bool) -> str:
    # The flip needs the full tenant count; quick mode trims rows.
    base_rows = 3000 if quick else fig_audit.FLIP_ROWS
    return fig_audit.run(base_rows=base_rows).render()


def _run_fig_server(quick: bool) -> str:
    # Quick mode keeps the corner rates: the straggler-factory claim
    # (light load) and the few-core sharing win (overload) both live
    # at the extremes of the rate axis.
    rates = (1.0, 4.0, 8.0) if quick else fig_server.DEFAULT_RATE_MULTIPLES
    horizon = 40.0 if quick else 60.0
    return fig_server.run(rate_multiples=rates,
                          horizon_services=horizon).render()


def _run_section4(quick: bool) -> str:
    return section4_example.run().render()


class _Experiment(NamedTuple):
    runner: Callable[[bool], str]
    description: str


_EXPERIMENTS = {
    "fig1": _Experiment(_run_fig1, "Figure 1: sharing speedup vs clients, few cores"),
    "fig2": _Experiment(_run_fig2, "Figure 2: sharing turns harmful on many cores"),
    "fig4": _Experiment(_run_fig4, "Figure 4: model-predicted speedup surfaces"),
    "fig5": _Experiment(_run_fig5, "Figure 5: model vs measured validation"),
    "fig6": _Experiment(_run_fig6, "Figure 6: policy throughput across workload mixes"),
    "fig_audit": _Experiment(_run_fig_audit, "Decision audit: projected vs measured rates over the fig_mem flip"),
    "fig_mem": _Experiment(_run_fig_mem, "Memory governance: spilling join sweep + cold/warm sharing flip"),
    "fig_parallel": _Experiment(_run_fig_parallel, "Share vs parallelize: exchange-partitioned fragments + the four-way policy"),
    "fig_drift": _Experiment(_run_fig_drift, "Drift-bounded elevator scans: throttle vs group windows under consumer skew"),
    "fig_scan": _Experiment(_run_fig_scan, "Cooperative scans: elevator sharing, async prefetch, scan-aware eviction"),
    "fig_server": _Experiment(_run_fig_server, "Open-system serving: goodput/p99 across load, and the sharing flip point"),
    "fig_sort": _Experiment(_run_fig_sort, "External sort: grant-governed runs/merges + prefetched spill read-back"),
    "section4": _Experiment(_run_section4, "Section 4 worked example of the analytical model"),
}


def _render_list() -> str:
    width = max(len(name) for name in _EXPERIMENTS)
    lines = ["registered experiments:"]
    lines.extend(
        f"  {name:<{width}}  {exp.description}"
        for name, exp in sorted(_EXPERIMENTS.items())
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
        sorted(_EXPERIMENTS) if "all" in args.experiments
        else [n for n in dict.fromkeys(args.experiments) if n != "list"]
    )
    for name in names:
        started = time.time()
        output = _EXPERIMENTS[name].runner(args.quick)
        elapsed = time.time() - started
        print(output)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description="Regenerate figures from 'To Share or Not To Share?' "
                    "(VLDB 2007).",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
