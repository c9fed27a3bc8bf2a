"""Round by round: wall time, resident set and collector pauses of one workload.

    python3 tools/rss_rounds.py tpch_adhoc [--rounds 27] [--seed 2007]

``bench/run.py`` reports one ``peak_rss_mb`` per pass; whether a
long-lived session's memory is *flat* is a question about the rounds in
between. This drives one workload of ``bench/workloads.py`` (read-only,
as ``tools/ab_pairs.py`` drives ``bench/run.py``) through the pass the
benchmark child runs — set-up, two warm-up rounds, ``--rounds`` timed
ones, all in this one process — and prints for every round its wall
time, the part of it the cyclic collector took (every generation, timed
through one ``gc.callbacks`` entry), the resident set after it, and the
generation-2 collections that fell inside it (a full collection walks
every tracked container, so its pause grows with whatever the session
keeps in lists and dicts; a tuple of scalars is untracked and costs it
nothing). The last lines give the growth per round after round 8
(caches have filled by then), the collector's share of the timed wall,
the tracked container cells left on the heap, the process's
``ru_maxrss`` — the benchmark's ``peak_rss_mb`` — and the workload's
behaviour pin, which two commits must agree on to the last digit.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETTLED_AFTER = 8


def rss_mb() -> float:
    """The resident set right now (``ru_maxrss`` only ever rises)."""
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Collections:
    """A ``gc.callbacks`` entry keeping every collection's pause, in ms,
    by generation (collections do not nest: one start time is enough)."""

    def __init__(self) -> None:
        self.pauses_ms: tuple[list[float], ...] = ([], [], [])
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            pause = (time.perf_counter() - self._started) * 1e3
            self.pauses_ms[info["generation"]].append(pause)

    def total_ms(self) -> float:
        return sum(map(sum, self.pauses_ms))


def tracked_cells() -> int:
    """Cells of every list, tuple and dict the collector tracks — what a
    full collection has to visit."""
    return sum(len(o) for o in gc.get_objects() if isinstance(o, (list, tuple, dict)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workload")
    parser.add_argument("--rounds", type=int, default=27, help="timed rounds after the warm-up")
    parser.add_argument("--seed", type=int, default=2007)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "bench")]
    from workloads import WARMUP_ROUNDS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    collections = Collections()
    full = collections.pauses_ms[2]
    gc.callbacks.append(collections)
    print(f"{'round':>5} {'wall ms':>9} {'gc ms':>7} {'rss MB':>8}  gen-2 pauses (ms)")
    resident, walls_ms, gcs_ms = [], [], []
    try:
        for index in range(WARMUP_ROUNDS + args.rounds):
            seen, gc_before = len(full), collections.total_ms()
            started = time.perf_counter()
            workload.round(index)
            walls_ms.append((time.perf_counter() - started) * 1e3)
            gcs_ms.append(collections.total_ms() - gc_before)
            resident.append(rss_mb())
            pauses = " ".join(f"{ms:.0f}" for ms in full[seen:])
            note = " (warm-up)" if index < WARMUP_ROUNDS else ""
            print(
                f"{index:>5} {walls_ms[-1]:>9.1f} {gcs_ms[-1]:>7.1f} {resident[-1]:>8.1f}"
                f"  {pauses}{note}",
                flush=True,
            )
    finally:
        gc.callbacks.remove(collections)

    if len(resident) > SETTLED_AFTER + 1:
        settled = resident[SETTLED_AFTER:]
        growth = (settled[-1] - settled[0]) / (len(settled) - 1)
        print(f"growth after round {SETTLED_AFTER}: {growth:+.2f} MB/round")
    print(
        f"gen-2 collections: {len(full)}, {sum(full):.0f} ms in all, "
        f"longest {max(full, default=0):.0f} ms"
    )
    young = collections.pauses_ms[0] + collections.pauses_ms[1]
    print(f"gen-0/1 collections: {len(young)}, {sum(young):.0f} ms in all")
    timed_gc_ms, timed_wall_ms = sum(gcs_ms[WARMUP_ROUNDS:]), sum(walls_ms[WARMUP_ROUNDS:])
    share = 100.0 * timed_gc_ms / timed_wall_ms if timed_wall_ms else 0.0
    print(f"collector: {timed_gc_ms:.0f} ms of {timed_wall_ms:.0f} ms timed wall ({share:.1f} %)")
    print(f"tracked container cells: {tracked_cells():,}")
    print(f"ru_maxrss: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    print(f"pin: {workload.pin()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
