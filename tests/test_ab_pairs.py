"""``tools/ab_pairs.py``: the alternation, the win count, the checkout.

The benchmark runs themselves are not repeated here (minutes); what is
checked is everything the tool adds around ``bench/run.py`` and
``bench/compare.py``.
"""

import argparse
import importlib.util
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ab_pairs", os.path.join(REPO, "tools", "ab_pairs.py")
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def test_sides_take_turns_running_first():
    firsts = [ab_pairs.pair_order(pair)[0] for pair in range(10)]
    assert firsts == ["old", "new"] * 5
    assert all(set(ab_pairs.pair_order(pair)) == {"old", "new"} for pair in range(10))


def test_wins_respect_direction_and_ties_count_for_neither():
    old, new = [10.0, 10.0, 10.0, 10.0], [12.0, 9.0, 10.0, 11.0]
    assert ab_pairs.wins(old, new, "higher") == (2, 1, 1)
    assert ab_pairs.wins(old, new, "lower") == (1, 2, 1)


def test_win_table_covers_every_metric_both_sides_measured():
    contract = {
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [
            {"name": "ops_per_s", "better": "higher"},
            {"name": "round_ms_p50", "better": "lower"},
        ],
    }

    def document(ops, ms):
        metrics = {"ops_per_s": ops, "round_ms_p50": ms}
        return {"workloads": {"a": {"plain": {"end_to_end": metrics}}}}

    lines = ab_pairs.win_table(
        contract, [document(500, 350), document(510, 340)], [document(690, 250), document(505, 345)]
    )
    assert len(lines) == 2  # workload b was not run
    assert "ops_per_s" in lines[0] and "wins 1/2" in lines[0] and "loses 1" in lines[0]
    assert "round_ms_p50" in lines[1] and "wins 1/2" in lines[1]


def test_win_table_marks_a_metric_the_new_side_loses_in_most_pairs():
    """A steady 10 % loss in 8 of 10 pairs is marked LOSES; 7 of 10, a
    loss tied away and a win are not."""
    contract = {
        "workloads": [{"name": "a"}],
        "end_to_end": [
            {"name": "ops_per_s", "better": "higher"},
            {"name": "round_ms_p50", "better": "lower"},
            {"name": "round_ms_p75", "better": "lower"},
            {"name": "peak_rss_mb", "better": "lower"},
        ],
    }

    def documents(values):
        return [
            {"workloads": {"a": {"plain": {"end_to_end": dict(zip(names, pair))}}}}
            for pair in zip(*values)
        ]

    names = [metric["name"] for metric in contract["end_to_end"]]
    old = [[100.0] * 10, [50.0] * 10, [50.0] * 10, [40.0] * 10]
    new = [
        [90.0] * 8 + [110.0] * 2,  # lost 8/10
        [55.0] * 7 + [45.0] * 3,  # lost 7/10
        [55.0] * 7 + [50.0] * 3,  # lost 7/10, tied 3
        [36.0] * 10,  # won 10/10
    ]
    lines = ab_pairs.win_table(contract, documents(old), documents(new))
    assert ab_pairs.LOSS_SHARE == 0.8
    assert [line.endswith("LOSES") for line in lines] == [True, False, False, False]
    assert "wins 2/10 pairs (loses 8, ties 0" in lines[0]


def test_only_the_last_three_pairs_run_the_traced_layers_pass():
    assert [ab_pairs.traced(pair, 10) for pair in range(10)] == [False] * 7 + [True] * 3
    assert [ab_pairs.traced(pair, 2) for pair in range(2)] == [True, True]
    args = argparse.Namespace(seed=17, seconds=None, layers=True)
    assert "--layers" in ab_pairs.run_command("root", "all", args, trace=True)
    assert "--layers" not in ab_pairs.run_command("root", "all", args, trace=False)
    args.layers = False
    for trace in (True, False):
        command = ab_pairs.run_command("root", "all", args, trace=trace)
        assert "--layers" not in command and command[-2:] == ["--trace", "0"]


CONTRACT = {"workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}]}


def test_a_comma_list_runs_each_named_workload_once():
    assert ab_pairs.workload_runs("all", CONTRACT) == ["all"]
    assert ab_pairs.workload_runs("c,a", CONTRACT) == ["c", "a"]
    assert ab_pairs.workload_runs("b,b", CONTRACT) == ["b"]
    args = argparse.Namespace(seed=17, seconds=None, layers=False)
    command = ab_pairs.run_command("root", "c", args, trace=False)
    assert command[command.index("--workload") + 1] == "c"


@pytest.mark.parametrize("argument", ["a,nope", "a,", "all,a"])
def test_an_unknown_workload_exits_with_one_line_naming_the_valid_ones(argument):
    with pytest.raises(SystemExit) as exit_:
        ab_pairs.workload_runs(argument, CONTRACT)
    message = str(exit_.value)
    assert "\n" not in message and message.endswith("valid: all, or a comma list of a, b, c")


def test_one_sides_documents_merge_into_one():
    def document(seed, **workloads):
        return {"schema": 1, "seed": seed, "workloads": workloads}

    first = document(7, a={"plain": {"ops": 1}})
    second = document(7, b={"plain": {"ops": 2}, "traced": {"sim.now": 3.0}})
    merged = ab_pairs.merge([first, second])
    assert merged == document(
        7, a={"plain": {"ops": 1}}, b={"plain": {"ops": 2}, "traced": {"sim.now": 3.0}}
    )
    assert list(first["workloads"]) == ["a"]  # the runs' own documents are untouched
    assert ab_pairs.merge([first]) == first


def test_layer_table_prints_every_traced_layer_old_to_new():
    contract = {
        "workloads": [{"name": "a"}, {"name": "b"}],
        "per_layer": [
            {"name": "sim.self_s"},
            {"name": "engine.aggregate.self_s"},
            {"name": "sim.now"},  # an exact count, not a layer
        ],
    }

    def document(**workloads):
        return {
            "workloads": {
                name: {"plain": {}, "traced": {"per_layer": layers}}
                for name, layers in workloads.items()
            }
        }

    old = document(a={"sim.self_s": 0.5, "engine.aggregate.self_s": 0.2, "sim.now": 7.0})
    new = document(
        a={"sim.self_s": 0.5, "engine.aggregate.self_s": 0.1, "sim.now": 7.0},
        b={"sim.self_s": 1.0},  # only one side traced b
    )
    lines = ab_pairs.layer_table(contract, [old], [new])
    assert len(lines) == 2
    assert lines[0].split()[:2] == ["a", "sim.self_s"] and "+0.0%" in lines[0]
    assert lines[1].split()[:5] == ["a", "engine.aggregate.self_s", "0.2000", "->", "0.1000"]
    assert "-50.0%" in lines[1] and lines[1].endswith("(medians of 1/1)")


def test_layer_table_takes_each_sides_median_over_its_traced_pairs():
    contract = {"workloads": [{"name": "a"}], "per_layer": [{"name": "sim.self_s"}]}

    def document(sim_self_s=None):
        traced = {"per_layer": {"sim.self_s": sim_self_s}} if sim_self_s is not None else None
        return {"workloads": {"a": {"plain": {}, "traced": traced}}}

    # An untraced pair has no say; one outlying traced pass moves no median.
    old = [document(), document(0.40), document(0.90), document(0.42)]
    new = [document(), document(0.30), document(0.20), document(0.31)]
    (line,) = ab_pairs.layer_table(contract, old, new)
    assert line.split()[:5] == ["a", "sim.self_s", "0.4200", "->", "0.3000"]
    assert "-28.6%" in line and line.endswith("(medians of 3/3)")


def test_checkout_unpacks_the_committed_benchmark(tmp_path):
    command = ["git", "-C", REPO, "rev-parse", "--verify", "HEAD^{commit}"]
    head = subprocess.run(command, capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not running from a git checkout")
    target = tmp_path / "old"
    assert ab_pairs.checkout("HEAD", str(target)) == head.stdout.strip()
    assert (target / "bench" / "run.py").is_file() and (target / "BENCHMARK.json").is_file()
    assert not (target / ".git").exists()


def test_an_unknown_ref_exits_with_one_line_naming_it(tmp_path):
    command = ["git", "-C", REPO, "rev-parse", "--verify", "HEAD^{commit}"]
    if subprocess.run(command, capture_output=True).returncode != 0:
        pytest.skip("not running from a git checkout")
    tool = os.path.join(REPO, "tools", "ab_pairs.py")
    keep = tmp_path / "work"
    ref = "no-such-ref-for-ab-pairs"
    run = subprocess.run(
        [sys.executable, tool, ref, "HEAD", "--pairs", "1", "--keep", str(keep)],
        capture_output=True,
        text=True,
    )
    assert run.returncode != 0
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and ref in lines[0] and "Traceback" not in run.stderr
    assert not (keep / "old").exists()


def test_an_unknown_workload_stops_before_the_first_run(tmp_path):
    command = ["git", "-C", REPO, "rev-parse", "--verify", "HEAD^{commit}"]
    if subprocess.run(command, capture_output=True).returncode != 0:
        pytest.skip("not running from a git checkout")
    tool = os.path.join(REPO, "tools", "ab_pairs.py")
    keep = tmp_path / "work"
    run = subprocess.run(
        [sys.executable, tool, "HEAD", "HEAD", "--workload", "parallel_dop,nope"]
        + ["--keep", str(keep)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and "'nope'" in lines[0] and "parallel_dop" in lines[0]
    assert "pair 1" not in run.stdout
    assert not list(keep.glob("*.json"))
