"""Self-tests of the benchmark harness.

    python -m pytest bench/tests -q

Not part of tier-1 (``testpaths`` is ``tests/``): these start the real
benchmark in ``--smoke`` mode, which takes about a minute.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(REPO, "src"))

import workloads  # noqa: E402  (needs the two paths above)

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(tmp_path, *arguments):
    """Run ``bench/run.py``; returns (result document, last stdout line)."""
    out = tmp_path / f"result{len(os.listdir(tmp_path))}.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *arguments, "--out", str(out)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=tmp_path,  # the benchmark must not depend on the caller's cwd
        timeout=600,
    )
    assert done.returncode == 0, done.stdout
    with open(out) as handle:
        return json.load(handle), json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Both passes of every workload, once, in smoke mode."""
    document, _ = run_bench(tmp_path_factory.mktemp("smoke"), "--smoke", "--layers")
    return document["workloads"]


def test_metric_names_are_the_contracts(smoke):
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    assert sorted(smoke) == sorted(WORKLOAD_NAMES)
    for name, entry in smoke.items():
        assert set(entry["plain"]["end_to_end"]) == end_to_end, name
        assert set(entry["traced"]["per_layer"]) == per_layer, name


def test_contract_limits():
    assert CONTRACT["paths"] == ["bench"]
    assert len(CONTRACT["per_layer"]) == 72
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in CONTRACT["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {w["name"] for w in CONTRACT["workloads"]} == set(workloads.WORKLOADS)


def test_driver_result_line(tmp_path):
    name = "spill_sort_join"
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, line = run_bench(
            tmp_path, "--workload", name, "--seed", "5", "--smoke", "--trace", str(trace)
        )
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in CONTRACT[key]}
        units = {m["name"]: m["unit"] for m in CONTRACT[key]}
        for metric, entry in line["metrics"].items():
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], (int, float))


def test_every_op_verifies(smoke):
    for name, entry in smoke.items():
        for run in entry.values():
            assert run["failed"] == 0 and run["attempted"] >= 1, name
            assert run["verified"] >= 1, name


def test_layers_account_for_the_traced_wall(smoke):
    for name, entry in smoke.items():
        layers = entry["traced"]["per_layer"]
        wall = layers["trace.wall_s"]
        attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert attributed == pytest.approx(wall, rel=0.01), name
        # At least 98 % of the wall lands on a *named* layer.
        assert layers["engine.other.self_s"] < 0.02 * wall, name
        assert layers["trace.overhead_ratio"] > 0, name


def test_bypass_predictions(smoke):
    """Each optimisation target has a workload that does not touch it."""
    layers = {name: entry["traced"]["per_layer"] for name, entry in smoke.items()}
    assert layers["tpch_adhoc"]["engine.parallel.self_s"] == 0
    assert layers["parallel_dop"]["engine.parallel.self_s"] > 0
    # Spill has two controls: the ungoverned closed system and the
    # server, which runs without a work_mem budget. The cmp32 workloads
    # are not: the first stateful operator of a plan is granted the
    # whole work_mem and its siblings spill on one-page grants.
    assert layers["fig6_closed"]["storage.spill.pages_written"] == 0
    assert layers["serve_mixed"]["storage.spill.pages_written"] == 0
    assert layers["spill_sort_join"]["storage.spill.pages_written"] > 0
    assert layers["spill_sort_join"]["storage.spill.self_s"] > 0
    assert layers["fig6_closed"]["storage.pool.accesses"] == 0
    assert layers["fig6_closed"]["storage.pool.self_s"] == 0
    assert layers["fig6_closed"]["workload.self_s"] > 0
    assert layers["serve_mixed"]["server.self_s"] > 0
    assert layers["serve_mixed"]["server.arrivals"] > 0
    # Memo-hot templates decode nothing; ad-hoc constants always do.
    assert layers["tpch_templated"]["storage.table.fused_misses"] == 0
    assert layers["tpch_adhoc"]["storage.table.fused_misses"] > 0
    for name in WORKLOAD_NAMES:
        if name != "serve_mixed":
            assert layers[name]["server.self_s"] == 0, name


def test_same_seed_same_counts_other_seed_other_inputs(tmp_path, smoke):
    name = "serve_mixed"
    arguments = ("--workload", name, "--smoke", "--trace", "1")
    again, _ = run_bench(tmp_path, *arguments)
    other, _ = run_bench(tmp_path, *arguments, "--seed", "2008")
    first = smoke[name]["traced"]
    again, other = again["workloads"][name]["traced"], other["workloads"][name]["traced"]
    assert first["exact"] == again["exact"] and "sim.now" in first["exact"]
    for metric in first["exact"]:
        assert first["per_layer"][metric] == again["per_layer"][metric], metric
    assert first["per_layer"]["sim.now"] != other["per_layer"]["sim.now"]
    assert first["per_layer"]["server.arrivals"] != other["per_layer"]["server.arrivals"]


def small(cls, seed, scale_factor=0.0005):
    workload = cls(seed)
    workload.scale_factor = scale_factor
    workload.setup()
    return workload


def test_seed_drives_the_adhoc_constants():
    def signatures(seed):
        workload = small(workloads.TpchAdhoc, seed)
        workload.round(0)
        workload.round(1)
        return [plan.signature for plan, _, _ in workload.ops]

    assert signatures(11) == signatures(11)
    assert signatures(11) != signatures(12)
    assert len(set(signatures(11))) == 8  # no constant set used twice


def test_a_wrong_row_is_a_failed_op():
    workload = small(workloads.SpillSortJoin, 3)
    workload.round(0)
    assert workload.verify() == 0
    plan, rows = workload.ops[0]
    key, line, price, quantity = rows[0]
    workload.ops[0] = (plan, [(key, line, price + 1.0, quantity)] + list(rows[1:]))
    workload.verified = 0
    assert workload.verify() == 1
    assert workload.verified == len(workload.ops)


def test_rows_match_tolerates_only_the_last_ulp():
    assert workloads.rows_match([(1, 0.1 + 0.2)], [(1, 0.3)])
    assert workloads.rows_match([(2, None), (1, 1.0)], [(1, 1.0), (2, None)])
    assert not workloads.rows_match([(1, 0.3001)], [(1, 0.3)])
    assert not workloads.rows_match([(1, 0.3)], [(1, 0.3), (1, 0.3)])


def test_without_the_program_there_is_no_result(tmp_path):
    """In a tree holding only the benchmark the command must fail."""
    import shutil

    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
