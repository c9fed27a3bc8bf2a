"""A session's cost per batch does not grow with its age.

Growth is a tier-1 property here, asserted on counts, not clocks (the
style of ``conftest.walk_visits``): what one end-of-batch observation
touches — tasks folded into the stage report, grant snapshots built,
keys a result retains — is the same at batch 2 and batch 40, what a
session or server keeps of finished work (tasks, handles, groups) is
the same after round 2 as after the last, and the decoded-page memo
of an ad-hoc session stays under its ceiling.
"""

import pytest

from repro.db import Database
from repro.engine import stats as engine_stats
from repro.engine.expressions import col, lt
from repro.engine.memory import MemoryGrant
from repro.engine.plan import AggSpec
from repro.obs.metrics import MetricsRegistry
from repro.policies import AlwaysShare
from repro.server import Arrival, Server
from repro.sim import Simulator
from repro.storage import Catalog, DataType, ScanShareManager, Schema
from repro.storage.table import PAGE_CACHE

ROWS = 512


def _catalog():
    catalog = Catalog()
    table = catalog.create("t", Schema([("k", DataType.INT), ("g", DataType.INT)]))
    table.insert_many([(i, i % 7) for i in range(ROWS)])
    return catalog


def _grouped(session, below=None):
    """A scan under two stateful operators (each takes a grant);
    ``below`` makes the scan's signature — and every auto-derived
    operator id above it — a new one."""
    query = session.table("t", columns=["k", "g"])
    if below is not None:
        query = query.where(lt(col("k"), below))
    return query.agg(AggSpec("count", "n"), by=("g",)).order_by("g")


@pytest.fixture()
def observed(monkeypatch):
    """What observation touches, as a dict the test may reset: tasks
    handed to the stage fold, ``GrantSnapshot``s built, and snapshots
    taken of the registry and of the scan manager beneath it."""
    counts = {"tasks": 0, "grants": 0, "registry": 0, "scans": 0}
    fold = engine_stats._fold
    snapshot = MemoryGrant.snapshot

    def counting(cls, key):
        taken = cls.snapshot

        def counted(self, *args, **kwargs):
            counts[key] += 1
            return taken(self, *args, **kwargs)

        monkeypatch.setattr(cls, "snapshot", counted)

    counting(MetricsRegistry, "registry")
    counting(ScanShareManager, "scans")

    def counted_fold(sums, tasks):
        tasks = list(tasks)
        counts["tasks"] += len(tasks)
        fold(sums, tasks)

    def counted_snapshot(self):
        counts["grants"] += 1
        return snapshot(self)

    monkeypatch.setattr(engine_stats, "_fold", counted_fold)
    monkeypatch.setattr(MemoryGrant, "snapshot", counted_snapshot)
    return counts


def _retained(session):
    """What a session holds of the work it has run: tasks, query and
    group handles, and per-group task lists."""
    engine = session.engine
    return (
        len(session.sim.tasks),
        len(engine.handles),
        len(engine.groups),
        len(engine.group_tasks),
    )


def test_identical_batches_cost_the_same_to_observe(observed):
    session = Database.open(_catalog(), "laptop")
    per_batch, results, retained = [], [], []
    for _ in range(40):
        observed.update(tasks=0, grants=0, registry=0, scans=0)
        for _ in range(2):
            session.submit(_grouped(session), share=False)
        results.append(session.run_all()[-1])
        per_batch.append((observed["tasks"], observed["grants"]))
        retained.append(_retained(session))
        # One read surface: a batch is observed by one registry
        # snapshot, and no component is snapshotted outside it.
        assert (observed["registry"], observed["scans"]) == (1, 1)
    tasks, grants = per_batch[0]
    assert tasks > 0 and grants > 0
    # Flat after the first batch: each observation folds the tasks its
    # own batch spawned and snapshots the grants its own batch took,
    # and the batch's finished work is retired once it is reported.
    assert set(per_batch[1:]) == {per_batch[1]}
    assert retained[1] == retained[39]
    second, last = results[1], results[39]
    assert len(second.grants) == len(last.grants) == grants
    assert len(second.metrics) == len(last.metrics)
    # Counters stay cumulative, and the session's own surface complete.
    assert last.metrics["sim.tasks"] == session.sim.spawned == 40 * tasks == 320
    assert last.metrics["sim.completions"] == session.sim.completions == 320
    assert session.metrics().snapshot() == last.metrics
    assert session.sim.stage_fold.folded == len(session.sim.tasks) == 0


def test_identical_serve_rounds_retain_the_same():
    """A ``Server`` is a long-lived session: every round's finished
    tasks, handles and group task lists are retired at its end, while
    ``sim.tasks`` and ``sim.completions`` keep counting every one."""
    server = Server.open(_catalog(), "laptop", policy=AlwaysShare())
    session = server.session
    grouped = _grouped(session).build()
    filtered = _grouped(session, below=100).build()
    trace = [
        Arrival(at=0.0, query=grouped),
        Arrival(at=0.0, query=grouped),
        Arrival(at=0.0, query=filtered),
        Arrival(at=10.0, query=grouped),
    ]
    retained, counted = [], []
    for _ in range(8):
        report = server.serve_trace(trace, drain=5_000_000.0)
        assert report.completed == len(trace)
        retained.append(_retained(session))
        snapshot = session.metrics().snapshot()
        counted.append((snapshot["sim.tasks"], snapshot["sim.completions"]))
    assert retained[1] == retained[7]
    # Four queries (one group of two, two solos) spawn 16 tasks a round.
    assert counted == [(16 * rounds, 16 * rounds) for rounds in range(1, 9)]


def _filled_cells(table):
    cells = 0
    for pages in table._page_cache.values():
        for page in pages:
            if page is None:
                continue
            if isinstance(page, tuple):  # a fused slot: (cost, batch)
                cells += page[1]._n * page[1].width
            else:  # a plain slot: the page's column slices
                cells += sum(len(column) for column in page)
    return cells


def test_once_only_constants_stay_inside_the_page_budget(monkeypatch):
    """The ``tpch_adhoc`` shape at a small scale: 200 constant sets,
    each used once, against a budget of 16 signatures' worth."""
    catalog = _catalog()
    table = catalog.table("t")
    budget = 16 * ROWS * 2  # a slot list weighs every row x the scan's two columns
    monkeypatch.setattr(PAGE_CACHE, "budget", budget)
    session = Database.open(catalog, "cmp32")
    evicted = PAGE_CACHE.evictions
    retained = set()
    for constant in range(1, 201):
        result = session.run(_grouped(session, below=constant))
        assert len(result.rows) == min(constant, 7)
        assert _filled_cells(table) <= PAGE_CACHE.weight <= budget
        retained.add(len(result.metrics))
    assert PAGE_CACHE.evictions > evicted
    assert len(table._page_cache) <= 16
    # Each result keeps the scalar families plus its own batch's
    # stage rows; the session's surface keeps every operator ever run.
    assert len(retained) == 1
    assert len(session.metrics().snapshot()) > 20 * retained.pop()


def test_simulator_keeps_no_queue_registry():
    sim = Simulator(processors=1)
    sim.queue("q", capacity=1)
    assert not hasattr(sim, "queues")
