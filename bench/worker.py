"""One benchmark child process: one workload, one pass, one JSON line.

``run.py`` starts this file once per measurement so that every pass
gets a fresh interpreter (set-up time and peak memory then mean what
they say) and no two workloads ever share a process. The pass is

    set-up -> 2 warm-up rounds -> timed rounds -> verify (untimed)

A *traced* pass splits its timed rounds in two: plain rounds first,
then the same rounds again with ``tracing.SpanRecorder`` installed, so
the cost of watching is the ratio of the two medians.

Only the last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# The host probe: a fixed pure-Python loop, run between rounds and never
# inside a timed section. This shared host runs everything 1.4x slower
# for seconds at a time; the probe sees most of that, so every timed
# section is scaled by PROBE_REFERENCE_MS over the probes either side
# of it and reads as milliseconds of the reference box in its quiet
# state (where the probe takes 7.0 ms).
PROBE_STEPS = 100_000
PROBE_REFERENCE_MS = 7.0
# A pass stops early once it has run this many times its nominal
# length, so a slow host cannot push the driver past its time limit.
OVERRUN = 2.0
MIN_ROUNDS = 3


def probe_ms() -> float:
    started = time.perf_counter()
    value = 1
    for step in range(PROBE_STEPS):
        value = (value * 31 + step) % 1_000_003
    return (time.perf_counter() - started) * 1e3


def host_factor(before_ms: float, after_ms: float) -> float:
    """What to multiply a wall time by, given the probes around it."""
    return 2.0 * PROBE_REFERENCE_MS / (before_ms + after_ms)


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO, "src"))


def quartiles(values):
    """(q1, median, q3); degenerate for fewer than two values."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def thirds_ratio(values) -> float:
    """Median of the last third over median of the first third."""
    third = max(1, len(values) // 3)
    return statistics.median(values[-third:]) / statistics.median(values[:third])


def run_rounds(workload, first: int, count: int, nominal_s: float, recorder=None):
    """Run up to ``count`` rounds with a probe either side of each.

    Returns (host-normalised round ms, wall round ms, probe ms); there
    is one more probe than rounds.
    """
    wall_ms, probes = [], [probe_ms()]
    deadline = time.perf_counter() + OVERRUN * nominal_s
    for index in range(first, first + count):
        started = time.perf_counter()
        if recorder is None:
            workload.round(index)
        else:
            with recorder.round():
                workload.round(index)
        wall_ms.append((time.perf_counter() - started) * 1e3)
        probes.append(probe_ms())
        if time.perf_counter() > deadline and len(wall_ms) >= MIN_ROUNDS:
            break
    round_ms = [
        wall * host_factor(before, after)
        for wall, before, after in zip(wall_ms, probes, probes[1:])
    ]
    return round_ms, wall_ms, probes


def exact_counts(workload, recorder) -> dict:
    """Group (b): counts read at the layer boundaries. Two runs of one
    commit with one seed and round count agree on these to the digit."""
    from repro.obs.metrics import MetricsRegistry
    from repro.server.stats import LatencyStats

    if workload.session is not None:
        registries = [workload.session.metrics()]
        error = workload.session.audit_log().mean_abs_error()
    else:
        # The closed driver builds and drops its own engines; the
        # recorder kept the ones made while it was installed.
        registries = [MetricsRegistry.for_engine(e) for e in recorder.engines]
        error = None
    snapshots = [registry.snapshot() for registry in registries]

    def total(key: str) -> float:
        return sum(snap.get(key, 0) for snap in snapshots)

    def scans(counter: str) -> float:
        return sum(
            value
            for snap in snapshots
            for key, value in snap.items()
            if key.startswith("scan.") and key.endswith("." + counter)
        )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    profile = recorder.profiler.totals()
    accesses = total("buffer.hits") + total("buffer.misses")
    reports = workload.reports
    arrivals = sum(report.submitted for report in reports)
    served = [
        record
        for report in reports
        for record in report.records
        if record.finished_at is not None
    ]
    responses = LatencyStats(record.response_time for record in served)
    # Completions per unit of simulated time from a round's first
    # arrival to its last completion (ServerReport.goodput counts only
    # completions inside the arrival horizon: none, at this load).
    busy = sum(
        max(r.finished_at for r in report.records if r.finished_at is not None)
        - report.records[0].submitted_at
        for report in reports
        if report.completed
    )
    return {
        "sim.now": workload.pin(),
        "sim.slices": profile["slices"],
        "sim.tasks": total("sim.tasks"),
        "sim.utilization": ratio(total("sim.utilization"), len(snapshots)),
        "engine.rows_emitted": profile["rows"],
        "storage.pool.accesses": accesses,
        "storage.pool.hit_rate": ratio(total("buffer.hits"), accesses),
        "storage.pool.evictions": total("buffer.evictions"),
        "storage.scans.physical_reads": scans("physical_reads"),
        "storage.scans.pages_per_read": ratio(scans("pages_served"), scans("physical_reads")),
        "storage.scans.prefetch_waste_frac": ratio(
            scans("prefetch_wasted"), scans("prefetch_issued")
        ),
        "storage.scans.attaches": scans("attaches"),
        "storage.spill.pages_written": total("spill.pages_written"),
        "storage.spill.pages_read": total("spill.pages_read"),
        "storage.table.fused_misses": recorder.calls("Table.column_slices"),
        "engine.memory.grants": recorder.calls("MemoryBroker.grant"),
        "engine.memory.overcommits": total("memory.overcommits"),
        "policies.decisions": recorder.decisions,
        "policies.shared_frac": ratio(recorder.shared_decisions, recorder.decisions),
        "policies.projection_abs_err": error or 0.0,
        "server.arrivals": arrivals,
        "server.shed_frac": ratio(sum(report.shed for report in reports), arrivals),
        "server.max_group": max((report.max_group_size for report in reports), default=0),
        "server.sim_p99": responses.p99,
        "server.sim_goodput": ratio(len(served), busy),
    }


def traced_rounds(workload, first: int, count: int, plain_p50_ms: float, trace_out):
    """Run ``count`` rounds under the span recorder; returns the
    group (a) and (b) per-layer metrics."""
    from tracing import SpanRecorder

    recorder = SpanRecorder()
    engines = [workload.session.engine] if workload.session is not None else []
    recorder.install(engines)
    try:
        # Nominal length: a traced round may cost up to three plain ones
        # before the overrun valve (which breaks exact counts) opens.
        round_ms, _, _ = run_rounds(
            workload, first, count, 3 * count * plain_p50_ms / 1e3, recorder
        )
    finally:
        recorder.uninstall()
    plans = workload.plans()
    layers = recorder.layer_self_times(plans)
    metrics = {f"{layer}.self_s": value for layer, value in layers.items()}
    metrics["trace.wall_s"] = recorder.wall_s()
    metrics["trace.overhead_ratio"] = statistics.median(round_ms) / plain_p50_ms
    counts = exact_counts(workload, recorder)
    metrics.update(counts)
    engine_s = sum(v for layer, v in layers.items() if layer.startswith("engine."))
    metrics["engine.rows_per_s"] = (
        metrics["engine.rows_emitted"] / engine_s if engine_s else 0.0
    )
    if trace_out:
        recorder.write_chrome(trace_out, plans)
    return metrics, sorted(counts), len(round_ms)


def main(argv=None) -> int:
    start_probe_ms = statistics.median(probe_ms() for _ in range(3))
    child_started = time.perf_counter()  # before the imports set-up pays for
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int, help="instead of seconds / ROUND_TARGET_S")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--micro-seconds", type=float, default=0.5)
    parser.add_argument("--micro-repeats", type=int, default=5)
    args = parser.parse_args(argv)

    if args.workload == "micro":
        import micro

        print(json.dumps(micro.run_all(args.micro_seconds, args.micro_repeats)))
        return 0

    from workloads import ROUND_TARGET_S, WARMUP_ROUNDS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    for index in range(WARMUP_ROUNDS):
        workload.round(index)
    workload.ops.clear()
    setup_s = time.perf_counter() - child_started
    ready_probe_ms = statistics.median(probe_ms() for _ in range(3))
    setup_s *= host_factor(start_probe_ms, ready_probe_ms)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # A fixed round count, not a time limit: every run of one commit
    # then executes the same operation sequence.
    if args.rounds is None and args.seconds is None:
        parser.error("one of --seconds and --rounds is needed")
    rounds = args.rounds or max(MIN_ROUNDS, round(args.seconds / ROUND_TARGET_S))
    plain = rounds if not args.trace else max(2, rounds // 4)
    round_ms, wall_ms, probes = run_rounds(
        workload, WARMUP_ROUNDS, plain, plain * ROUND_TARGET_S
    )
    plain_ops = len(workload.ops)
    _, p50, p75 = quartiles(round_ms)
    probe_q1, probe_p50, probe_q3 = quartiles(probes)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "scale_factor": workload.scale_factor,
        "rounds": len(round_ms),
        "rounds_asked": plain,
        "sim_now": workload.pin(),
        "samples": {"round_ms": round_ms, "round_wall_ms": wall_ms, "probe_ms": probes},
        "end_to_end": {
            "setup_s": setup_s,
            "ops_per_s": plain_ops / (sum(round_ms) / 1e3),
            "round_ms_p50": p50,
            "round_ms_p75": p75,
        },
        # A host that sped up or slowed down while the pass ran: its
        # probe medians in the first and last third differ by > 10 %.
        "disturbed": abs(thirds_ratio(probes) - 1.0) > 0.10,
    }

    if args.trace:
        per_layer, result["exact"], result["rounds_traced"] = traced_rounds(
            workload, WARMUP_ROUNDS + len(round_ms), plain, p50, args.trace_out
        )
        per_layer.update(
            {
                "run.round_drift_ratio": thirds_ratio(round_ms),
                "host.probe_ms_p50": probe_p50,
                "host.probe_ms_iqr": probe_q3 - probe_q1,
                "tpch.generate_s": workload.generate_s,
            }
        )
        result["per_layer"] = per_layer

    # Peak memory of the program, read before the oracle allocates.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["end_to_end"]["peak_rss_mb"] = peak_kb / 1024.0

    started = time.perf_counter()
    result["attempted"] = len(workload.ops)
    result["failed"] = workload.verify()
    result["verified"] = workload.verified
    if args.trace:
        result["per_layer"]["bench.verify_s"] = time.perf_counter() - started
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
