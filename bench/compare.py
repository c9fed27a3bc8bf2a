"""Compare two sets of benchmark result documents.

    python3 bench/compare.py OLD.json[,OLD2.json,...] NEW.json[,NEW2.json,...]

Each side is one or more files written by ``run.py --out``; several
files per side are reduced to their median and quartiles. One row is
printed per (workload, end-to-end metric) with a verdict:

* ``worse``       the new median is worse than the old by more than the
                  metric's bound in ``BENCHMARK.json``;
* ``unresolved``  the run-to-run spread on either side exceeds the bound,
                  so the runs cannot show the metric held — never
                  reported as unchanged;
* ``better``      the new median is better by more than the old side's
                  own spread;
* ``same``        none of the above.

Any difference in an exact per-layer count (or the simulated-time pin)
is printed as a behaviour change: those repeat to the last digit on one
commit, so a difference is the program doing something else. The exit
status is 1 when any row is ``worse`` or ``unresolved`` or an operation
failed, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_side(argument: str) -> list:
    documents = []
    for path in argument.split(","):
        with open(path) as handle:
            documents.append(json.load(handle))
    return documents


def summary(values: list):
    """(median, q1, q3); the quartiles collapse without three values."""
    median = statistics.median(values)
    if len(values) < 3:
        return median, min(values), max(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def passes(documents: list, workload: str, kind: str) -> list:
    return [
        doc["workloads"][workload][kind]
        for doc in documents
        if kind in doc["workloads"].get(workload, {})
    ]


def verdict(old, new, better: str, bound: float) -> tuple:
    """(verdict, signed change as a share of old; positive is worse)."""
    (old_median, old_q1, old_q3), (new_median, new_q1, new_q3) = old, new
    change = (new_median - old_median) / old_median
    if better == "higher":
        change = -change
    old_spread = (old_q3 - old_q1) / old_median
    new_spread = (new_q3 - new_q1) / new_median
    if max(old_spread, new_spread) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < 0 and -change > old_spread:
        return "better", change
    return "same", change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    old_docs, new_docs = load_side(argv[0]), load_side(argv[1])
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        contract = json.load(handle)

    status = 0
    header = (
        f"{'workload':<16} {'metric':<13} {'old median (q1..q3)':>32} "
        f"{'new median (q1..q3)':>32} {'change':>8} {'bound':>6}  verdict"
    )
    print(header)
    for workload in (w["name"] for w in contract["workloads"]):
        old_plain = passes(old_docs, workload, "plain")
        new_plain = passes(new_docs, workload, "plain")
        if not old_plain or not new_plain:
            continue
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = summary([run["end_to_end"][name] for run in old_plain])
            new = summary([run["end_to_end"][name] for run in new_plain])
            word, change = verdict(old, new, metric["better"], bound)
            if word in ("worse", "unresolved"):
                status = 1
            print(
                f"{workload:<16} {name:<13} "
                f"{old[0]:>12.4g} ({old[1]:>7.4g}..{old[2]:<7.4g}) "
                f"{new[0]:>12.4g} ({new[1]:>7.4g}..{new[2]:<7.4g}) "
                f"{change:>+8.1%} {bound:>6.0%}  {word}"
            )

        for side, runs in (("old", old_plain), ("new", new_plain)):
            failed = sum(run["failed"] for run in runs)
            if failed:
                status = 1
                print(f"{workload}: {failed} operations FAILED on the {side} side")

        # The two sides are comparable only if their hosts were.
        probes = [
            statistics.median(
                statistics.median(run["samples"]["probe_ms"]) for run in runs
            )
            for runs in (old_plain, new_plain)
        ]
        drift = abs(probes[1] - probes[0]) / probes[0]
        if drift > 0.10:
            print(
                f"{workload}: WARNING host probe differs by {drift:.0%} between "
                f"the sides ({probes[0]:.2f} ms vs {probes[1]:.2f} ms)"
            )

        # The simulated clock after a fixed round sequence pins the
        # program's behaviour; it only compares like with like.
        same_inputs = {(d["seed"], d["seconds"], d["smoke"]) for d in old_docs} == {
            (d["seed"], d["seconds"], d["smoke"]) for d in new_docs
        }
        pins = [
            {run["sim_now"] for run in runs if run["rounds"] == run["rounds_asked"]}
            for runs in (old_plain, new_plain)
        ]
        if same_inputs and pins[0] and pins[1] and pins[0] != pins[1]:
            print(
                f"{workload}: BEHAVIOUR CHANGE sim.now "
                f"{sorted(pins[0])} -> {sorted(pins[1])}"
            )
        old_traced = passes(old_docs, workload, "traced")
        new_traced = passes(new_docs, workload, "traced")
        if old_traced and new_traced:
            before, after = old_traced[-1], new_traced[-1]
            comparable = (before["seed"], before["rounds"], before["rounds_traced"]) == (
                after["seed"], after["rounds"], after["rounds_traced"]
            )
            for name in before["exact"] if comparable else ():
                if before["per_layer"][name] != after["per_layer"].get(name):
                    print(
                        f"{workload}: BEHAVIOUR CHANGE {name} "
                        f"{before['per_layer'][name]!r} -> {after['per_layer'].get(name)!r}"
                    )
    return status


if __name__ == "__main__":
    sys.exit(main())
