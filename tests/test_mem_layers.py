"""``tools/mem_layers.py``: every traced block lands in one layer, by
the module that allocated it, and the layers sum to the snapshot.

The benchmark workloads themselves are not run here (CI runs the tool
on ``parallel_dop``); a stub workload allocates through one known
module instead.
"""

import importlib.util
import json
import os
import sys
from types import SimpleNamespace

from repro.storage import Catalog, DataType, Schema

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, *parts):
    spec = importlib.util.spec_from_file_location(name, os.path.join(REPO, *parts))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mem_layers = _load("mem_layers", "tools", "mem_layers.py")
tracing = _load("tracing", "bench", "tracing.py")


def _src(module):
    return os.path.join(mem_layers.SRC, module + ".py")


def test_a_block_is_filed_under_its_allocating_module():
    layer_of = mem_layers.layer_of
    assert layer_of([_src("engine/operators/aggregate"), _src("sim/simulator")]) == (
        "engine.aggregate"
    )
    assert layer_of([_src("server/admission")]) == "server.admission"
    assert layer_of([_src("server/server")]) == "server"
    assert layer_of([_src("tpch/generator")]) == "tpch"
    assert layer_of([_src("engine/parallel/exchange")]) == "engine.parallel"
    assert layer_of([_src("engine/parallel/builder")]) == "engine.build"
    assert layer_of([os.path.join(mem_layers.BENCH, "workloads.py")]) == "bench"
    assert layer_of(["/usr/lib/python3/json/decoder.py"]) == layer_of([]) == "other"


def test_a_batch_is_filed_under_its_first_caller_outside_packet():
    layer_of = mem_layers.layer_of
    packet = _src("engine/packet")
    assert layer_of([packet, packet, _src("engine/parallel/exchange")]) == (
        "engine.packet.exchange"
    )
    assert layer_of([packet, _src("engine/operators/scan")]) == "engine.packet.scan"
    assert layer_of([packet, packet, packet, _src("engine/stage")]) == "engine.packet.emitter"
    assert layer_of([packet, _src("engine/operators/aggregate")]) == "engine.packet.other"
    assert layer_of([packet, packet]) == "engine.packet.other"  # the traceback ran out


def test_every_layer_is_a_timing_layer_or_named_here():
    named = set(tracing.LAYERS) | set(mem_layers.EXTRA_LAYERS)
    assert {layer for _, layer in mem_layers.MODULE_LAYERS} <= named
    assert {"bench", "other"} <= named


def test_layers_sum_checks_the_total():
    assert mem_layers.layers_sum({"sim": 3, "other": 4, None: 7})
    assert not mem_layers.layers_sum({"sim": 3, None: 7})


class _Workload:
    """A stub workload whose rounds keep one sealed table each."""

    ROWS = 10_000

    def __init__(self, seed):
        self.ops = []
        self.kept = []

    def setup(self):
        pass

    def round(self, index):
        self.ops.append(index)
        table = Catalog().create("t", Schema([("k", DataType.INT)]))
        table.insert_many((i,) for i in range(self.ROWS))
        table.column("k")  # seals the rows into a column tuple
        self.kept.append(table)


def test_main_files_a_stub_workloads_table_under_storage(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends src/ and bench/
    workloads = SimpleNamespace(WORKLOADS={"stub": _Workload})
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    monkeypatch.setattr(mem_layers, "untraced_peak_mb", lambda args: 100.0)
    assert mem_layers.main(["stub", "--rounds", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["layers_sum_to_total"] and report["untraced_peak_rss_mb"] == 100.0
    table = report["layers"]["storage.table"]
    # Two rounds, each keeping a column tuple of 10k pointers (and the
    # row list it was sealed from).
    kept_mb = 2 * _Workload.ROWS * 8 / mem_layers.MB
    assert table["end_mb"] - table["setup_mb"] >= kept_mb
    assert table["mb_per_round"] >= kept_mb / 2
    layers = report["layers"].values()
    assert abs(sum(row["end_mb"] for row in layers) - report["total"]["end_mb"]) < 1e-9
    assert table["end_mb"] > report["layers"]["engine.aggregate"]["end_mb"] == 0.0


def test_main_prints_a_table_that_ends_with_the_sum(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "workloads", SimpleNamespace(WORKLOADS={"stub": _Workload}))
    monkeypatch.setattr(mem_layers, "untraced_peak_mb", lambda args: 100.0)
    assert mem_layers.main(["stub", "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["layer", "setup", "MB", "round", "1", "MB", "MB/round"]
    assert any(line.split()[0] == "storage.table" for line in out)
    assert out[-1] == "layers sum to the snapshot total: yes"
