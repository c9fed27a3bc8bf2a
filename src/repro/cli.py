"""The ``repro`` command: operate the reproduction from a shell.

``repro experiments`` regenerates the paper's figures (the registry
and runner live in :mod:`repro.experiments.cli`); ``repro serve`` runs
the open-system service tier; two more subcommand families drive the
simulated-time and wall-clock instruments of ``repro.obs`` end to
end::

    repro experiments list           # every registered experiment
    repro experiments fig1 --quick   # Figure 1, reduced client counts

    repro trace                      # text timeline of a shared demo run
    repro trace --out trace.json     # Chrome/Perfetto trace_event JSON
    repro trace --validate           # schema-check the export (CI smoke)
    repro trace --queries 4 --pages 32 --metrics --audit

    repro perf                       # hotspot table of the same demo run
    repro perf run --out perf.json   # speedscope/Perfetto-loadable JSON
    repro perf run --collapsed out.folded   # flamegraph collapsed stacks

``repro trace`` and ``repro perf run`` build the same small
deterministic catalog, open a ``laptop``-preset session with the
requested instrument attached, run a forced-share batch of identical
scans (so the elevator attach/prefetch/throttle machinery fires), and
export what the instrument saw. The trace side is simulated-time only
(two invocations produce byte-identical JSON); the perf side reports
*host* wall time, so numbers vary run to run while the simulated
outcome stays fixed.
"""

from __future__ import annotations

import argparse
import sys

from repro.db import Database, RuntimeConfig
from repro.experiments import cli as experiments_cli
from repro.obs.trace import validate_chrome_trace
from repro.storage.catalog import Catalog
from repro.storage.page import DEFAULT_PAGE_ROWS
from repro.storage.schema import DataType, Schema
from repro.tpch.queries import QUERIES, build

__all__ = ["main", "build_parser", "demo_session", "demo_trace_session"]


def demo_session(
    pages: int = 16,
    queries: int = 2,
    preset: str = "laptop",
    trace: bool = False,
    perf: bool = False,
):
    """Run the canonical instrumented demo batch; returns the session.

    ``queries`` identical full scans of a ``pages``-page table are
    forced into one sharing group on a ``preset`` session — the
    smallest workload that exercises every event family (compute
    slices, queue blocks, pool hits/misses, elevator attach/prefetch,
    drift throttling when the preset bounds drift). ``trace``/``perf``
    pick which instruments ride along.
    """
    catalog = Catalog()
    table = catalog.create(
        "lineitem", Schema([("k", DataType.INT), ("v", DataType.INT)])
    )
    table.insert_many(
        [(i, i % 7) for i in range(pages * DEFAULT_PAGE_ROWS)]
    )
    config = RuntimeConfig.preset(preset).with_(trace=trace, perf=perf)
    session = Database.open(catalog, config)
    for i in range(queries):
        session.submit(
            session.table("lineitem", columns=["k"]),
            label=f"client{i}",
            share=True,
        )
    session.run_all()
    return session


def demo_trace_session(pages: int = 16, queries: int = 2, preset: str = "laptop"):
    """The traced demo batch (kept as the stable name ``repro trace``
    and its tests import; :func:`demo_session` is the general form)."""
    return demo_session(pages=pages, queries=queries, preset=preset, trace=True)


# ----------------------------------------------------------------------
# shared export plumbing
# ----------------------------------------------------------------------


def _add_export_args(parser) -> None:
    """The ``--out``/``--validate`` pair every chrome-trace-exporting
    subcommand shares (``repro trace``, ``repro perf run``)."""
    parser.add_argument(
        "--out", metavar="PATH",
        help="write Chrome/Perfetto trace_event JSON to PATH",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="schema-check the export; exit 1 on problems",
    )


def _export(args, exporter, valid_line: str, unit: str) -> int:
    """Run the shared ``--validate``/``--out`` handling.

    ``exporter`` needs ``to_chrome()`` and ``write(path) -> int``
    (both the tracer and the profiler satisfy this); ``valid_line``
    is printed when validation passes and ``unit`` names what
    ``write`` counts. Returns the exit status (1 on invalid export).
    """
    status = 0
    if args.validate:
        problems = validate_chrome_trace(exporter.to_chrome())
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            status = 1
        else:
            print(valid_line)
    if args.out:
        count = exporter.write(args.out)
        print(f"wrote {count} {unit} to {args.out}")
    return status


# ----------------------------------------------------------------------
# repro trace
# ----------------------------------------------------------------------


def _cmd_trace(args) -> int:
    session = demo_trace_session(
        pages=args.pages, queries=args.queries, preset=args.preset
    )
    tracer = session.tracer
    assert tracer is not None  # trace=True attached it

    status = _export(
        args, tracer, f"trace valid: {len(tracer.events)} events", "events"
    )
    if args.text or not (args.out or args.validate):
        print(tracer.timeline(limit=args.limit))
    if args.metrics:
        print(session.metrics().render())
    if args.audit:
        print(session.audit_log().render())
    return status


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------


def _query_names(text: str) -> list[str]:
    """``--queries`` as a list, every name a known TPC-H query."""
    names = text.split(",")
    unknown = sorted(set(names) - set(QUERIES))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown TPC-H query {', '.join(unknown)}; "
            f"available: {', '.join(sorted(QUERIES))}"
        )
    return names


def _cmd_serve(args) -> int:
    from repro.policies import AlwaysShare, NeverShare
    from repro.server import LatencyBound, QueueDepthBound, Server
    from repro.tpch.generator import generate
    from repro.workload.mixes import WorkloadMix

    catalog = generate(scale_factor=args.scale_factor, seed=args.seed)
    queries = {name: build(name, catalog) for name in args.queries}
    weights = {name: 1.0 for name in args.queries}
    mix = WorkloadMix(weights)

    config = RuntimeConfig.preset(args.preset)
    policy = {"always": AlwaysShare(), "never": NeverShare(), "auto": None}[
        args.policy
    ]
    admission = (
        LatencyBound(args.latency_bound)
        if args.latency_bound is not None
        else QueueDepthBound(args.max_queue)
    )
    server = Server.open(
        catalog,
        config,
        policy=policy,
        admission=admission,
        max_inflight=args.max_inflight,
        keep_rows=False,
    )
    report = server.serve(
        mix,
        queries,
        arrival_rate=args.rate,
        horizon=args.horizon,
        drain=args.drain,
        seed=args.seed,
    )
    print(report.render())
    if args.metrics:
        print(server.session.metrics().render())
    if args.audit:
        print(server.session.audit_log().render())
    return 0


# ----------------------------------------------------------------------
# repro perf
# ----------------------------------------------------------------------


def _cmd_perf_run(args) -> int:
    session = demo_session(
        pages=args.pages, queries=args.queries, preset=args.preset, perf=True
    )
    profiler = session.perf()

    status = _export(
        args, profiler,
        f"perf export valid: {len(profiler.profile())} operators",
        "operator profiles",
    )
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(profiler.collapsed() + "\n")
        print(f"wrote collapsed stacks to {args.collapsed}")
    if args.text or not (args.out or args.validate or args.collapsed):
        print(profiler.hotspot_table(limit=args.limit))
    return status


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------


def _add_demo_args(parser) -> None:
    """The demo-batch shape arguments ``trace`` and ``perf run`` share."""
    parser.add_argument(
        "--queries", type=int, default=2,
        help="identical scans forced into one sharing group (default 2)",
    )
    parser.add_argument(
        "--pages", type=int, default=16,
        help="pages in the scanned table (default 16)",
    )
    parser.add_argument(
        "--preset", default="laptop",
        choices=["laptop", "cmp32", "unbounded"],
        help="RuntimeConfig preset to run under (default laptop)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser (``tests/test_docs.py`` parses every
    documented command line against it)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Operate the 'To Share or Not To Share?' reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments",
        help="regenerate the paper's figures (and the extension figures)",
    )
    experiments_cli.add_arguments(experiments)
    experiments.set_defaults(func=experiments_cli.run)

    trace = sub.add_parser(
        "trace",
        help="record a traced demo batch and export the flight recording",
    )
    _add_demo_args(trace)
    _add_export_args(trace)
    trace.add_argument(
        "--text", action="store_true",
        help="print the text timeline (default when no --out/--validate)",
    )
    trace.add_argument(
        "--limit", type=int, default=None,
        help="cap the text timeline at this many events",
    )
    trace.add_argument(
        "--metrics", action="store_true",
        help="also print the session's metric snapshot",
    )
    trace.add_argument(
        "--audit", action="store_true",
        help="also print the routing-decision audit table",
    )
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the open-system service tier: Poisson arrivals, "
        "admission control, sharing, and an open-system report",
    )
    serve.add_argument(
        "--rate", type=float, default=1.0 / 20_000.0,
        help="Poisson arrival rate, queries per simulated time unit "
        "(the default sits just under the demo catalog's capacity "
        "on the laptop preset)",
    )
    serve.add_argument(
        "--horizon", type=float, default=400_000.0,
        help="arrival window in simulated time units",
    )
    serve.add_argument(
        "--drain", type=float, default=100_000.0,
        help="extra time after the horizon for in-flight work",
    )
    serve.add_argument(
        "--queries", type=_query_names, default="q1,q6",
        help="comma-separated TPC-H query names, mixed evenly",
    )
    serve.add_argument(
        "--policy", default="auto", choices=["auto", "always", "never"],
        help="sharing policy (auto = the session's outlook advisor)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission bound on the waiting-queue depth (default 64)",
    )
    serve.add_argument(
        "--latency-bound", type=float, default=None, metavar="T",
        help="shed on projected latency > T instead of queue depth",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None,
        help="cap on concurrently dispatched queries",
    )
    serve.add_argument(
        "--scale-factor", type=float, default=0.001,
        help="TPC-H scale factor of the served catalog",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--preset", default="laptop",
        choices=["laptop", "cmp32", "unbounded"],
        help="RuntimeConfig preset to serve under (default laptop)",
    )
    serve.add_argument(
        "--metrics", action="store_true",
        help="also print the session's metric snapshot",
    )
    serve.add_argument(
        "--audit", action="store_true",
        help="also print the decision/shed audit table",
    )
    serve.set_defaults(func=_cmd_serve)

    perf = sub.add_parser(
        "perf",
        help="wall-clock profiling: hotspots and flamegraphs",
    )
    # Bare `repro perf` behaves like `repro perf run` with defaults.
    perf.set_defaults(
        func=_cmd_perf_run, queries=2, pages=16, preset="laptop",
        out=None, validate=False, collapsed=None, text=False, limit=None,
    )
    perf_sub = perf.add_subparsers(dest="perf_command")

    perf_run = perf_sub.add_parser(
        "run",
        help="profile a demo batch and export hotspots / flamegraph JSON",
    )
    _add_demo_args(perf_run)
    _add_export_args(perf_run)
    perf_run.add_argument(
        "--collapsed", metavar="PATH",
        help="write collapsed-stack flamegraph text to PATH",
    )
    perf_run.add_argument(
        "--text", action="store_true",
        help="print the hotspot table (default when nothing else asked)",
    )
    perf_run.add_argument(
        "--limit", type=int, default=None,
        help="cap the hotspot table at this many operators",
    )
    perf_run.set_defaults(func=_cmd_perf_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
