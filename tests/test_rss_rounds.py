"""``tools/rss_rounds.py``: the collector callback, the cell count and
the dispatcher's retained state.

The workload rounds themselves are not repeated here (CI runs the tool
for three); what is checked is what the tool measures them with.
"""

import gc
import importlib.util
import os
import sys
from types import SimpleNamespace

from repro.db import Database
from repro.storage import Catalog, DataType, Schema

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "rss_rounds", os.path.join(REPO, "tools", "rss_rounds.py")
)
rss_rounds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rss_rounds)


def test_every_generation_is_timed_and_summed():
    collections = rss_rounds.Collections()
    for generation in (0, 0, 1, 2):
        collections("start", {"generation": generation})
        collections("stop", {"generation": generation, "collected": 0, "uncollectable": 0})
    assert [len(pauses) for pauses in collections.pauses_ms] == [2, 1, 1]
    assert all(ms >= 0.0 for pauses in collections.pauses_ms for ms in pauses)
    assert collections.total_ms() == sum(map(sum, collections.pauses_ms))


def test_the_callback_sees_real_collections():
    collections = rss_rounds.Collections()
    gc.callbacks.append(collections)
    try:
        gc.collect(0)
        gc.collect()
    finally:
        gc.callbacks.remove(collections)
    young, _, full = collections.pauses_ms
    assert young and full and collections.total_ms() > 0.0


def test_tracked_cells_count_lists_but_not_scalar_tuples():
    gc.collect()
    before = rss_rounds.tracked_cells()
    as_tuple = tuple(range(100_000, 150_000))
    gc.collect()  # the first collection that sees a scalar tuple untracks it
    assert abs(rss_rounds.tracked_cells() - before) < 10_000
    as_list = list(as_tuple)
    assert rss_rounds.tracked_cells() - before >= len(as_list)


def test_dispatcher_state_reads_slots_groups_and_open_records():
    assert rss_rounds.dispatcher_state(SimpleNamespace()) == "-"
    catalog = Catalog()
    catalog.create("t", Schema([("k", DataType.INT)])).insert_many([(i,) for i in range(100)])
    session = Database.open(catalog, "laptop")
    workload = SimpleNamespace(session=session)
    assert rss_rounds.dispatcher_state(workload) == "0/0/0"
    session.submit(session.table("t"), share=True)
    session.submit(session.table("t"), share=True)
    session.coordinator.drain()
    assert rss_rounds.dispatcher_state(workload) == "1/1/1"
    session.run_all()
    assert rss_rounds.dispatcher_state(workload) == "0/0/0"


def test_maxrss_reads_the_high_water_mark_in_mb():
    # The peak is at least what is resident now, and in the same unit.
    resident = rss_rounds.rss_mb()
    assert resident - 1.0 <= rss_rounds.maxrss_mb() < 64 * resident


def test_the_growth_gates_the_exit_status():
    settled = rss_rounds.SETTLED_AFTER
    flat = [30.0] * settled + [30.0, 30.5, 31.0]
    assert rss_rounds.growth_per_round(flat) == 0.5
    assert rss_rounds.growth_per_round(flat[:-2]) is None  # one settled round
    assert rss_rounds.FLAT_MB_PER_ROUND == 1.0
    assert rss_rounds.gate(0.5) == rss_rounds.gate(1.0) == 0
    assert rss_rounds.gate(1.5) == 1
    assert rss_rounds.gate(None) == 2


class _Workload:
    """A stub workload whose resident set the test dictates per round."""

    def __init__(self, seed):
        self.session = None
        self.ops = []  # what a bench workload keeps for its verify

    def setup(self):
        pass

    def round(self, index):
        self.ops.append(index)

    def pin(self):
        return 0


def _main_with_growth(monkeypatch, mb_per_round, rounds):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends src/ and bench/
    workloads = SimpleNamespace(WARMUP_ROUNDS=2, WORKLOADS={"stub": _Workload})
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    readings = iter(30.0 + mb_per_round * i for i in range(100))
    monkeypatch.setattr(rss_rounds, "rss_mb", lambda: next(readings))
    return rss_rounds.main(["stub", "--rounds", str(rounds)])


def test_main_exits_by_the_flat_bound(monkeypatch, capsys):
    assert _main_with_growth(monkeypatch, 0.2, rounds=12) == 0
    assert _main_with_growth(monkeypatch, 1.5, rounds=12) == 1
    assert "is not flat" in capsys.readouterr().out
    assert _main_with_growth(monkeypatch, 0.0, rounds=3) == 2
    assert "run more rounds" in capsys.readouterr().out


def test_main_clears_the_answers_a_workload_keeps_each_round(monkeypatch):
    """The growth must be the program's, not the answers a bench
    workload keeps for a verify the tool never runs."""
    kept = []
    monkeypatch.setattr(_Workload, "pin", lambda self: kept.append(list(self.ops)) or 0)
    assert _main_with_growth(monkeypatch, 0.0, rounds=12) == 0
    assert kept == [[2 + 12 - 1]]  # the last round's only
