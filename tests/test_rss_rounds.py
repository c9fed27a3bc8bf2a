"""``tools/rss_rounds.py``: the collector callback and the cell count.

The workload rounds themselves are not repeated here (CI runs the tool
for three); what is checked is what the tool measures them with.
"""

import gc
import importlib.util
import os

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
