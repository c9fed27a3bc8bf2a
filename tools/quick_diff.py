"""The printed figures of two commits, compared line for line.

    python3 tools/quick_diff.py OLD_REF NEW_REF

A refactor that claims to change no behaviour must leave every figure
byte-identical. This unpacks both refs' committed files into one
temporary directory (``ab_pairs.checkout``: ``git archive``, nothing
registered in ``.git``), runs ``python -m repro.cli experiments all
--quick`` in each (about two minutes a side, one after the other),
drops the ``[<name> completed in …s]`` lines — the only wall-clock
output — and prints a unified diff of the rest. The exit status is 1
on any difference (or when a side's run fails), else 0.

Uncommitted work: ``git add -A`` then pass ``"$(git stash create)"``
as NEW_REF.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_pairs import checkout

COMPLETED = re.compile(r"^\[.+ completed in [0-9.]+s\]$")


def run_figures(root: str) -> tuple[int, str]:
    """``(exit status, stdout)`` of every figure, ``--quick``, run from
    the checkout at ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, "-m", "repro.cli", "experiments", "all", "--quick"]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def figure_lines(output: str) -> list[str]:
    """The output without its wall-clock lines."""
    return [line for line in output.splitlines() if not COMPLETED.match(line)]


def main(argv=None, runner=run_figures) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old_ref")
    parser.add_argument("new_ref")
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix="quick_diff-")
    try:
        outputs = {}
        for side, ref in (("old", args.old_ref), ("new", args.new_ref)):
            root = os.path.join(work, side)
            print(f"{side}: {ref} = {checkout(ref, root)}", flush=True)
            status, output = runner(root)
            if status:
                print(f"{side}: experiments exited with status {status}")
                return 1
            outputs[side] = figure_lines(output)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    diff = list(
        difflib.unified_diff(
            outputs["old"], outputs["new"], args.old_ref, args.new_ref, lineterm=""
        )
    )
    if diff:
        print("\n".join(diff))
        return 1
    print(f"no difference in {len(outputs['new'])} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
