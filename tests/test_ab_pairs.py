"""``tools/ab_pairs.py``: the alternation, the win count, the checkout.

The benchmark runs themselves are not repeated here (minutes); what is
checked is everything the tool adds around ``bench/run.py`` and
``bench/compare.py``.
"""

import importlib.util
import os
import subprocess

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


def test_checkout_unpacks_the_committed_benchmark(tmp_path):
    command = ["git", "-C", REPO, "rev-parse", "--verify", "HEAD^{commit}"]
    head = subprocess.run(command, capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not running from a git checkout")
    target = tmp_path / "old"
    assert ab_pairs.checkout("HEAD", str(target)) == head.stdout.strip()
    assert (target / "bench" / "run.py").is_file() and (target / "BENCHMARK.json").is_file()
    assert not (target / ".git").exists()
