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
nothing), and what the session's dispatcher still holds once the round
is over: merge slots, live groups and open decision records (``-`` for
``fig6_closed``, which has no session). The last lines give the growth
per round after round 8 (caches have filled by then), the collector's
share of the timed wall, the tracked container cells left on the heap
and the dispatcher's state beside them, the process's ``ru_maxrss`` (and
the ``ru_maxrss`` it had reached by the end of set-up, so a change that
moves the high-water mark into data generation shows) and the
workload's behaviour pin, which two commits must agree on to the last
digit.

The tool measures the program, not the harness: a workload appends
every round's answers (rows included) to ``workload.ops`` for the
benchmark's ``verify``, which this tool never calls, so it empties
``ops`` before each round. The growth line therefore excludes those
retained answers, and ``ru_maxrss`` reads below the benchmark's
``peak_rss_mb``, which includes them. For ``fig6_closed``, whose pin
sums its cells' throughput from ``ops``, the pin is the last round's.

The growth line is a gate: the tool exits 1 when the growth per round
after round 8 exceeds ``FLAT_MB_PER_ROUND`` (what "flat" means), and 2
when the run has too few rounds to compute it, so a short run cannot
pass.
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
FLAT_MB_PER_ROUND = 1.0


def maxrss_mb() -> float:
    """The process's resident high-water mark so far (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


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


def dispatcher_state(workload) -> str:
    """``slots/live groups/open records`` of the workload's session
    coordinator, or ``-`` for a workload that runs no session."""
    session = getattr(workload, "session", None)
    if session is None:
        return "-"
    slots = session.coordinator._slots
    groups = sum(len(slot.groups) for slot in slots.values())
    return f"{len(slots)}/{groups}/{len(session.coordinator._open)}"


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
    setup_maxrss = maxrss_mb()
    collections = Collections()
    full = collections.pauses_ms[2]
    gc.callbacks.append(collections)
    print(
        f"{'round':>5} {'wall ms':>9} {'gc ms':>7} {'rss MB':>8} {'dispatch':>9}"
        "  gen-2 pauses (ms)"
    )
    resident, walls_ms, gcs_ms = [], [], []
    try:
        for index in range(WARMUP_ROUNDS + args.rounds):
            workload.ops.clear()
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
                f" {dispatcher_state(workload):>9}  {pauses}{note}",
                flush=True,
            )
    finally:
        gc.callbacks.remove(collections)

    growth = growth_per_round(resident)
    if growth is not None:
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
    print(f"dispatcher slots/live groups/open records: {dispatcher_state(workload)}")
    print(f"ru_maxrss: {maxrss_mb():.1f} MB (end of set-up: {setup_maxrss:.1f} MB)")
    print(f"pin: {workload.pin()!r}")
    return gate(growth)


def growth_per_round(resident: list[float]):
    """MB per round from round ``SETTLED_AFTER`` to the last (caches
    have filled by then), or ``None`` with fewer than two such rounds."""
    if len(resident) <= SETTLED_AFTER + 1:
        return None
    settled = resident[SETTLED_AFTER:]
    return (settled[-1] - settled[0]) / (len(settled) - 1)


def gate(growth) -> int:
    """The exit status: 0 when the growth is flat, 1 above
    ``FLAT_MB_PER_ROUND``, 2 when there was no growth to hold to it."""
    if growth is None:
        print(f"FAIL: no growth after round {SETTLED_AFTER} to hold flat; run more rounds")
        return 2
    if growth > FLAT_MB_PER_ROUND:
        print(f"FAIL: growth {growth:+.2f} MB/round is not flat (> {FLAT_MB_PER_ROUND:g})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
