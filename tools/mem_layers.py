"""Where a workload's memory lives, layer by layer.

    python3 tools/mem_layers.py parallel_dop [--rounds 8] [--seed 2007] [--json]

``bench/run.py --layers`` splits a round's wall time into the layers of
``bench/tracing.py``; memory has one number, ``peak_rss_mb``. This
splits the heap the same way. It drives one workload of
``bench/workloads.py`` (read-only, as ``tools/rss_rounds.py`` does)
with ``tracemalloc`` started before ``setup()``, takes one snapshot
after set-up and one after round ``--rounds`` (emptying
``workload.ops``, the answers the benchmark keeps for its verify,
before each round), and files every traced block under the layer of
the module that allocated it:

* the layer names of ``bench/tracing.py`` (``LAYERS``), by module;
* ``tpch`` for the generated database's own allocations;
* ``engine.packet.<caller>``: a batch's columns, rows and splits are
  allocated inside ``repro/engine/packet.py`` whoever asks for them,
  so that module alone is split by its first caller outside it —
  ``exchange``, ``scan``, ``emitter`` (``engine/stage.py``) or
  ``other``;
* ``other``: the standard library, the interpreter's import machinery
  and this tool.

A module belongs to one layer: ``storage/buffer.py`` holds both the
buffer pool and the spill files, and is filed under ``storage.pool``;
``engine/operators/partitioning.py`` holds every partition memo, the
engine's exchange memos included, and is filed under ``engine.other``.

Per layer it prints the MB at set-up, the MB after the last round and
the growth per round between the two (which includes whatever the
first rounds cache), then the traced total beside the peak resident
set of the same run without tracing, measured first in a child
process of its own (``--untraced``): tracing costs far more memory
than it traces, so a traced process's resident set says nothing.
That child clears ``workload.ops`` as this pass does, so its peak reads
below the benchmark's ``peak_rss_mb``, which keeps every answer.

The layers must sum to the snapshot's total, block for block: the
exit status is 1 when they do not at either snapshot, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro") + os.sep
BENCH = os.path.join(REPO, "bench") + os.sep
MB = 2**20

# The allocating frame and four callers: enough to see past a batch's
# own frames (``rows`` reading ``columns``, which compresses in a
# comprehension) to who asked.
NFRAMES = 5

# Layer of a block, by its allocating module under ``src/repro/``
# (first matching prefix). ``engine/packet`` is split by caller below.
MODULE_LAYERS = (
    ("server/admission", "server.admission"),
    ("server/", "server"),
    ("db/", "db"),
    ("obs/", "obs"),
    ("policies/coordinator", "policies.coordinator"),
    ("policies/", "policies"),
    ("core/", "policies"),
    ("profiling/", "profiling"),
    ("workload/", "workload"),
    ("experiments/", "workload"),
    ("tpch/", "tpch"),
    ("sim/", "sim"),
    ("engine/operators/scan", "engine.scan"),
    ("engine/operators/filter", "engine.filter"),
    ("engine/operators/project", "engine.filter"),
    ("engine/operators/limit", "engine.filter"),
    ("engine/expressions", "engine.filter"),
    ("engine/operators/aggregate", "engine.aggregate"),
    ("engine/operators/hash_join", "engine.join"),
    ("engine/operators/merge_join", "engine.join"),
    ("engine/operators/nested_loop_join", "engine.join"),
    ("engine/operators/sort", "engine.sort"),
    ("engine/parallel/exchange", "engine.parallel"),
    ("engine/parallel/", "engine.build"),
    ("engine/engine", "engine.build"),
    ("engine/plan", "engine.build"),
    ("engine/wiring", "engine.build"),
    ("engine/memory", "engine.memory"),
    ("engine/", "engine.other"),
    ("storage/buffer", "storage.pool"),
    ("storage/tenant_pool", "storage.pool"),
    ("storage/shared_scan", "storage.scans"),
    ("storage/spill_cursor", "storage.spill"),
    ("storage/page", "storage.spill"),
    ("storage/", "storage.table"),
)
PACKET = "engine/packet"
PACKET_CALLERS = (
    ("engine/parallel/exchange", "exchange"),
    ("engine/operators/scan", "scan"),
    ("engine/stage", "emitter"),
)
EXTRA_LAYERS = (
    "tpch",
    *(f"engine.packet.{caller}" for _, caller in PACKET_CALLERS),
    "engine.packet.other",
    "other",
)


def _module(filename: str):
    """``filename`` relative to ``src/repro/`` (no extension), or
    ``None`` outside it."""
    if not filename.startswith(SRC):
        return None
    return os.path.splitext(filename[len(SRC) :])[0]


def layer_of(filenames) -> str:
    """The layer of a block whose traceback's files are ``filenames``,
    the allocating frame first."""
    filenames = iter(filenames)
    first = next(filenames, "")
    module = _module(first)
    if module == PACKET:
        for caller in map(_module, filenames):
            if caller == PACKET:
                continue
            for prefix, name in PACKET_CALLERS:
                if caller is not None and caller.startswith(prefix):
                    return f"engine.packet.{name}"
            break
        return "engine.packet.other"
    if module is not None:
        for prefix, layer in MODULE_LAYERS:
            if module.startswith(prefix):
                return layer
    elif first.startswith(BENCH):
        return "bench"
    return "other"


def by_layer(snapshot: tracemalloc.Snapshot) -> dict:
    """Traced bytes per layer, with the snapshot's total under
    ``None`` (summed over its traces, independently of the layers)."""
    sizes: dict = {}
    cache: dict = {}
    for stat in snapshot.statistics("traceback"):
        files = tuple(frame.filename for frame in reversed(stat.traceback))
        layer = cache.get(files)
        if layer is None:
            layer = cache[files] = layer_of(files)
        sizes[layer] = sizes.get(layer, 0) + stat.size
    sizes[None] = sum(trace.size for trace in snapshot.traces)
    return sizes


def layers_sum(sizes: dict) -> bool:
    """Whether the layers of :func:`by_layer` add up to its total."""
    return sum(size for layer, size in sizes.items() if layer is not None) == sizes[None]


def untraced_peak_mb(args) -> float:
    """The same run's peak resident set without tracing, in a child."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        args.workload,
        "--rounds",
        str(args.rounds),
        "--seed",
        str(args.seed),
        "--untraced",
    ]
    child = subprocess.run(command, capture_output=True, text=True, check=True)
    return float(child.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workload")
    parser.add_argument("--rounds", type=int, default=8, help="rounds after set-up")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    parser.add_argument(
        "--untraced", action="store_true", help="run without tracing; print the peak RSS in MB"
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "bench")]
    from tracing import LAYERS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.untraced:
        workload.setup()
        for index in range(args.rounds):
            workload.ops.clear()
            workload.round(index)
        print(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}")
        return 0

    peak_rss_mb = untraced_peak_mb(args)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start(NFRAMES)
    try:
        workload.setup()
        at_setup = by_layer(tracemalloc.take_snapshot())
        for index in range(args.rounds):
            workload.ops.clear()
            workload.round(index)
        at_end = by_layer(tracemalloc.take_snapshot())
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()

    layers = {
        layer: {
            "setup_mb": at_setup.get(layer, 0) / MB,
            "end_mb": at_end.get(layer, 0) / MB,
            "mb_per_round": (at_end.get(layer, 0) - at_setup.get(layer, 0)) / MB / args.rounds,
        }
        for layer in (*LAYERS, *EXTRA_LAYERS)
    }
    sums = all(layers_sum(sizes) for sizes in (at_setup, at_end))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "layers": layers,
        "total": {"setup_mb": at_setup[None] / MB, "end_mb": at_end[None] / MB},
        "traced_peak_mb": traced_peak / MB,
        "untraced_peak_rss_mb": peak_rss_mb,
        "explained": at_end[None] / MB / peak_rss_mb,
        "layers_sum_to_total": sums,
    }
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(render(report))
    return 0 if sums else 1


def render(report: dict) -> str:
    rounds = report["rounds"]
    lines = [f"{'layer':<24} {'setup MB':>9} {f'round {rounds} MB':>11} {'MB/round':>9}"]
    for layer, row in report["layers"].items():
        if row["setup_mb"] or row["end_mb"]:
            lines.append(
                f"{layer:<24} {row['setup_mb']:>9.2f} {row['end_mb']:>11.2f}"
                f" {row['mb_per_round']:>+9.3f}"
            )
    total = report["total"]
    lines.append(f"{'total':<24} {total['setup_mb']:>9.2f} {total['end_mb']:>11.2f}")
    lines.append(
        f"traced peak {report['traced_peak_mb']:.1f} MB; the untraced run peaks at"
        f" {report['untraced_peak_rss_mb']:.1f} MB resident, of which the traced total"
        f" after round {rounds} explains {100.0 * report['explained']:.0f} %"
    )
    verdict = "yes" if report["layers_sum_to_total"] else "NO"
    lines.append(f"layers sum to the snapshot total: {verdict}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
