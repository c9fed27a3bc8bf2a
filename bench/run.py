"""The repository's benchmark: six seeded workloads, one command.

    python3 bench/run.py [--workload NAME|all] [--seed 2007] [--seconds S]
                         [--trace 0|1 | --layers] [--trace-out FILE]
                         [--smoke] [--out FILE]

Each workload runs in its own child process (``worker.py``), one after
the other, single-threaded. ``--trace 0`` (the default) measures the
end-to-end metrics with all tracing off; ``--trace 1`` runs the traced
pass that yields the per-layer metrics; ``--layers`` runs both. Every
metric is printed by name with its unit, outputs are verified, and the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Metric names, units and bounds live in ``BENCHMARK.json`` at the root
of the repository; see ``bench/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# Set-up is timed in this many fresh processes and the median reported.
SETUP_RUNS = 3
SCHEMA = "repro-perfbench/1"


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child(*arguments: str) -> dict:
    """Run one worker process to completion; its last output line is
    the result. A failing child fails the whole run."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), *arguments]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: {' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(name, seed, length, trace, setup_runs, trace_out, rerun) -> dict:
    """One pass of one workload. With ``rerun``, a pass the host
    disturbed is run once more and both results are kept."""
    arguments = ["--workload", name, "--seed", str(seed)]
    extra = ["--trace-out", trace_out] if trace and trace_out else []
    passes = []
    for _ in range(2 if rerun else 1):
        passes.append(child(*arguments, *length, "--trace", str(trace), *extra))
        if not passes[-1]["disturbed"]:
            break
    result = passes[-1]
    result["disturbed_runs"] = passes[:-1]
    if not trace:
        setups = [result["end_to_end"]["setup_s"]]
        setups += [
            child(*arguments, "--setup-only")["setup_s"] for _ in range(setup_runs - 1)
        ]
        result["samples"]["setup_s"] = setups
        result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true", help="both passes")
    parser.add_argument("--trace-out", help="write the traced pass as Chrome trace_event JSON")
    parser.add_argument("--smoke", action="store_true", help="2 rounds, short microbenches")
    parser.add_argument("--out", help="write the full result document here")
    args = parser.parse_args(argv)

    contract = load_contract()
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        raise SystemExit("bench: src/repro not found; run from a full checkout")
    names = [w["name"] for w in contract["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            raise SystemExit(f"bench: unknown workload {args.workload!r}; have {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    length = ["--rounds", "2"] if args.smoke else ["--seconds", str(seconds)]
    setup_runs = 1 if args.smoke else SETUP_RUNS
    traces = (0, 1) if args.layers else (args.trace,)
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}

    micro = None
    if 1 in traces:
        # All microbenches together take about 40 % of --seconds: 17
        # timings, 3 repeats each (a fixed 0.05 s, once, under --smoke).
        micro_s = 0.05 if args.smoke else seconds / 125.0
        repeats = 1 if args.smoke else 3
        micro = child(
            "--workload", "micro", "--seed", "0",
            "--micro-seconds", str(micro_s), "--micro-repeats", str(repeats),
        )

    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    for name in names:
        entry = document["workloads"][name] = {}
        for trace in traces:
            # Only a result document can keep both passes of a re-run.
            result = measure(
                name, args.seed, length, trace, setup_runs, args.trace_out,
                rerun=args.out is not None,
            )
            if trace:
                result["per_layer"].update(micro)
            key = "per_layer" if trace else "end_to_end"
            entry["traced" if trace else "plain"] = result
            for metric, value in result[key].items():
                print(f"{name:<16} {metric:<40} {value:>16.6g} {units.get(metric, '')}")
            print(
                f"{name:<16} {'failed_frac':<40} "
                f"{result['failed'] / result['attempted']:>16.6g} ratio"
                f"  ({result['failed']} of {result['attempted']} ops, "
                f"{result['verified']} checked against the oracle)"
            )

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)

    # The one-line result. With one workload and one pass this is the
    # driver's contract; otherwise metrics are keyed by workload.
    results = [r for entry in document["workloads"].values() for r in entry.values()]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    def metrics_of(result: dict) -> dict:
        values = result["per_layer"] if "per_layer" in result else result["end_to_end"]
        return {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {
            name: {k: v for r in entry.values() for k, v in metrics_of(r).items()}
            for name, entry in document["workloads"].items()
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
