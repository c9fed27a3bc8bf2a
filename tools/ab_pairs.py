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
   ones — with the same ``--workload``, ``--seed`` and ``--seconds``;
3. the new side's ``bench/compare.py old1,... new1,...`` prints every
   (workload, end-to-end metric) row and any behaviour change, and this
   file adds the per-pair win count of the new side on every metric.

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
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout(ref: str, directory: str) -> str:
    """Unpack ``ref``'s committed files into ``directory``; return the
    commit id they came from."""
    commit = subprocess.run(
        ["git", "-C", REPO, "rev-parse", "--verify", f"{ref}^{{commit}}"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    os.makedirs(directory)
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", commit], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
    return commit


def load(path: str):
    with open(path) as handle:
        return json.load(handle)


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
    """One line per (workload, end-to-end metric) both sides measured."""
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
            lines.append(
                f"{workload:<16} {name:<13} new side wins {won}/{len(old)} pairs"
                f" (loses {lost}, ties {tied}; {metric['better']} is better)"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old_ref")
    parser.add_argument("new_ref")
    parser.add_argument("--workload", default="all", help="one workload, or all six (default)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, help="run length; the benchmark's own if omitted")
    parser.add_argument("--keep", metavar="DIR", help="keep checkouts and results here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    work = args.keep or tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        roots = {side: os.path.join(work, side) for side in ("old", "new")}
        for side, ref in (("old", args.old_ref), ("new", args.new_ref)):
            print(f"{side}: {ref} = {checkout(ref, roots[side])}", flush=True)

        results: dict[str, list[str]] = {"old": [], "new": []}
        for pair in range(args.pairs):
            for side in pair_order(pair):
                out = os.path.join(work, f"{side}{pair + 1}.json")
                command = [sys.executable, os.path.join(roots[side], "bench", "run.py")]
                command += ["--workload", args.workload, "--seed", str(args.seed)]
                command += ["--trace", "0", "--out", out]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                print(f"pair {pair + 1}/{args.pairs}: {side}", flush=True)
                # A failed operation ends run.py with status 1 and a
                # document compare.py reports; only a missing document
                # stops the loop.
                subprocess.run(command, cwd=roots[side], stdout=subprocess.DEVNULL)
                if not os.path.exists(out):
                    raise SystemExit(f"{' '.join(command)} wrote no result document")
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
        contract = load(os.path.join(roots["new"], "BENCHMARK.json"))
        documents = [[load(path) for path in results[side]] for side in ("old", "new")]
        print()
        print("\n".join(win_table(contract, *documents)))
        return status
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
