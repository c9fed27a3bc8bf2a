"""Alternating A/B pairs of the repository benchmark between two commits.

    python3 tools/ab_pairs.py OLD_REF NEW_REF --workload serve_mixed --pairs 10 --seed 7

The protocol a performance claim here is judged by (the
``choosing-metrics`` guide, section 8; ``bench/README.md``): at least
ten pairs of parent and change, alternating which side runs first so a
slow minute of this shared host lands on both sides alike; both sides'
medians and quartiles; the change must win at least nine tenths of the
pairs. This runs it as one command:

1. each ref's committed files are unpacked into their own directory
   under one temporary directory (``git archive`` — what the pipeline
   that judges a change does too; nothing is registered in ``.git``, so
   an interrupted run leaves nothing behind to prune);
2. pair by pair, ``bench/run.py --trace 0 --out`` runs on both sides
   from their own checkouts — old first on even pairs, new first on odd
   ones — with the same ``--workload``, ``--seed`` and ``--seconds``.
   ``--workload`` takes ``all`` (one run of all six) or a comma list of
   names, each checked against the new side's ``BENCHMARK.json`` before
   the first run: a side then runs once per name and its documents are
   merged into one per pair (their ``workloads`` unioned);
3. the new side's ``bench/compare.py old1,... new1,...`` prints every
   (workload, end-to-end metric) row and any behaviour change, and this
   file adds the per-pair win count of the new side on every metric,
   marking ``LOSES`` where the new side lost at least ``LOSS_SHARE`` of
   the pairs: a loss that steady is real even when its median is inside
   the benchmark's bound and ``compare.py`` reads ``same``.

With ``--layers`` each side's last ``min(3, pairs)`` pairs run
``bench/run.py --layers`` instead (the plain pass plus the traced one),
so ``compare.py`` also checks every exact count and ``sim.now`` between
the sides, and this file prints every layer's median traced ``self_s``
over those pairs, old → new, per workload: the attribution a speed
claim needs, in the same command. One traced pass per side is not
enough on a shared host: it can move every layer of a workload at once.

Uncommitted work can be measured without committing it:
``python3 tools/ab_pairs.py HEAD "$(git stash create)" ...`` (``git
stash create`` writes a commit of the tracked working tree and prints
its id; it touches neither the index nor the stash list).

The exit status is ``compare.py``'s: 1 when a row is ``worse`` or
``unresolved`` or an operation failed. ``--keep DIR`` leaves the
checkouts and every result document in ``DIR`` instead of deleting
them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Pairs that run the traced pass under --layers: the last ones, whose
# per-layer medians the layer table prints.
TRACED_PAIRS = 3

# The share of pairs the new side must lose for the win table to mark a
# metric LOSES (8 of 10 pairs: a steady loss, not the host's noise).
LOSS_SHARE = 0.8


def checkout(ref: str, directory: str) -> str:
    """Unpack ``ref``'s committed files into ``directory``; return the
    commit id they came from. A ref that names no commit ends the
    program with one line that names it."""
    resolved = subprocess.run(
        ["git", "-C", REPO, "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if resolved.returncode != 0:
        raise SystemExit(f"ab_pairs: {ref!r} does not name a commit in {REPO}")
    commit = resolved.stdout.strip()
    os.makedirs(directory)
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", commit], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
    return commit


def load(path: str):
    with open(path) as handle:
        return json.load(handle)


def workload_runs(argument: str, contract: dict) -> list[str]:
    """The ``--workload`` argument as one ``bench/run.py --workload`` per
    run: ``all`` runs once; a comma list runs each name once. A name the
    contract does not list ends the program with one line naming the
    valid ones."""
    if argument == "all":
        return ["all"]
    valid = [w["name"] for w in contract["workloads"]]
    names = list(dict.fromkeys(argument.split(",")))
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise SystemExit(
            f"ab_pairs: unknown workload {', '.join(map(repr, unknown))};"
            f" valid: all, or a comma list of {', '.join(valid)}"
        )
    return names


def merge(documents: list) -> dict:
    """One result document from one side's runs of different workloads:
    the first run's header, every run's ``workloads``."""
    merged = dict(documents[0], workloads={})
    for document in documents:
        merged["workloads"].update(document["workloads"])
    return merged


def pair_order(pair: int) -> tuple[str, str]:
    """Which side runs first in this pair: they take turns."""
    return ("old", "new") if pair % 2 == 0 else ("new", "old")


def wins(old_values: list, new_values: list, better: str) -> tuple[int, int, int]:
    """(new side's wins, losses, ties) over the pairs, in run order."""
    won = lost = 0
    for old, new in zip(old_values, new_values):
        if new != old:
            if (new > old) == (better == "higher"):
                won += 1
            else:
                lost += 1
    return won, lost, len(old_values) - won - lost


def win_table(contract: dict, old_docs: list, new_docs: list) -> list[str]:
    """One line per (workload, end-to-end metric) both sides measured,
    ending ``LOSES`` when the new side lost ``LOSS_SHARE`` of the pairs."""
    lines = []
    for workload in (w["name"] for w in contract["workloads"]):
        sides = [
            [doc["workloads"].get(workload, {}).get("plain") for doc in docs]
            for docs in (old_docs, new_docs)
        ]
        if not all(run for runs in sides for run in runs):
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            old, new = ([run["end_to_end"][name] for run in runs] for runs in sides)
            won, lost, tied = wins(old, new, metric["better"])
            verdict = "  LOSES" if lost >= LOSS_SHARE * len(old) else ""
            lines.append(
                f"{workload:<16} {name:<13} new side wins {won}/{len(old)} pairs"
                f" (loses {lost}, ties {tied}; {metric['better']} is better){verdict}"
            )
    return lines


def layer_table(contract: dict, old_docs: list, new_docs: list) -> list[str]:
    """One line per (workload, layer) both sides traced: the median
    ``self_s`` over a side's traced passes, old → new, and how many
    passes each median is of."""
    layers = [m["name"] for m in contract["per_layer"] if m["name"].endswith(".self_s")]
    lines = []
    for workload in (w["name"] for w in contract["workloads"]):
        old, new = (
            [
                doc["workloads"][workload]["traced"]["per_layer"]
                for doc in docs
                if doc["workloads"].get(workload, {}).get("traced")
            ]
            for docs in (old_docs, new_docs)
        )
        if not (old and new):
            continue
        for layer in layers:
            olds = [passes[layer] for passes in old if layer in passes]
            news = [passes[layer] for passes in new if layer in passes]
            if olds and news:
                before, after = statistics.median(olds), statistics.median(news)
                change = f"{(after - before) / before:+8.1%}" if before else ""
                lines.append(
                    f"{workload:<16} {layer:<30} {before:>9.4f} -> {after:>9.4f} s {change}"
                    f"  (medians of {len(olds)}/{len(news)})"
                )
    return lines


def traced(pair: int, pairs: int) -> bool:
    """Whether pair ``pair`` (from 0) of ``pairs`` runs the traced pass
    under ``--layers``: the last ``min(TRACED_PAIRS, pairs)`` do."""
    return pair >= pairs - TRACED_PAIRS


def run_command(root: str, workload: str, args, trace: bool) -> list[str]:
    """``bench/run.py`` for one workload (or ``all``) on one side of one
    pair; a traced pair runs both passes under ``--layers``."""
    command = [sys.executable, os.path.join(root, "bench", "run.py")]
    command += ["--workload", workload, "--seed", str(args.seed)]
    command += ["--layers"] if args.layers and trace else ["--trace", "0"]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    return command


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old_ref")
    parser.add_argument("new_ref")
    parser.add_argument(
        "--workload", default="all", help="a comma list of workloads, or all six (default)"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, help="run length; the benchmark's own if omitted")
    parser.add_argument("--keep", metavar="DIR", help="keep checkouts and results here")
    parser.add_argument(
        "--layers",
        action="store_true",
        help=f"trace the last {TRACED_PAIRS} pairs; print the median layer table",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    work = args.keep or tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        roots = {side: os.path.join(work, side) for side in ("old", "new")}
        for side, ref in (("old", args.old_ref), ("new", args.new_ref)):
            print(f"{side}: {ref} = {checkout(ref, roots[side])}", flush=True)
        contract = load(os.path.join(roots["new"], "BENCHMARK.json"))
        runs = workload_runs(args.workload, contract)

        results: dict[str, list[str]] = {"old": [], "new": []}
        for pair in range(args.pairs):
            for side in pair_order(pair):
                print(f"pair {pair + 1}/{args.pairs}: {side}", flush=True)
                documents = []
                for workload in runs:
                    out = os.path.join(work, f"{side}{pair + 1}-{workload}.json")
                    command = run_command(
                        roots[side], workload, args, trace=traced(pair, args.pairs)
                    )
                    command += ["--out", out]
                    # A failed operation ends run.py with status 1 and a
                    # document compare.py reports; only a missing
                    # document stops the loop.
                    subprocess.run(command, cwd=roots[side], stdout=subprocess.DEVNULL)
                    if not os.path.exists(out):
                        raise SystemExit(f"{' '.join(command)} wrote no result document")
                    documents.append(load(out))
                out = os.path.join(work, f"{side}{pair + 1}.json")
                with open(out, "w") as handle:
                    json.dump(merge(documents), handle, indent=1)
                results[side].append(out)

        print(flush=True)
        status = subprocess.run(
            [
                sys.executable,
                os.path.join(roots["new"], "bench", "compare.py"),
                ",".join(results["old"]),
                ",".join(results["new"]),
            ]
        ).returncode
        documents = [[load(path) for path in results[side]] for side in ("old", "new")]
        print()
        print("\n".join(win_table(contract, *documents)))
        if args.layers:
            print()
            print("\n".join(layer_table(contract, *documents)))
        return status
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
