"""``Session.check_quiescent``: a session between batches holds nothing.

Every batch that runs to its end leaves no live task, open grant,
spill file, elevator ticket or coordinator entry (the autouse
fixture in ``conftest.py`` asserts it after every test that opens a
session). A batch that raises leaves its work behind; the check names
it. The probe below is that case: one operator failing mid-run.

A failing stage frees what it held itself: ``drive``'s ``finally``
closes its grant, the grant drops the spill files opened under it,
and the simulator's failure route closes the task's generator, so a
stage stopped at a request it cannot serve unwinds too. What the
probe still lists is the rest of the query and its batch — the other
stages, their grants and files, the scan tickets and the coordinator
entries — until a failing query releases its whole group.
"""

import gc
import os
import shutil
import subprocess
import sys
import weakref

import pytest

from repro.db import Database, RuntimeConfig
from repro.engine import (
    AggSpec,
    CostModel,
    Engine,
    MemoryBroker,
    MemoryGrant,
    ScanShareManager,
    aggregate,
    hash_join,
    scan,
    sort,
)
from repro.engine.expressions import col
from repro.engine.operators.aggregate import AggregateOperator
from repro.engine.operators.api import drive
from repro.engine.operators.hash_join import HashJoinOperator
from repro.engine.operators.scan import ScanOperator
from repro.engine.operators.sort import SortOperator
from repro.engine.packet import RowBatch
from repro.errors import QuiescenceError, SimulationError
from repro.sim.events import Get
from repro.sim.queues import SimQueue
from repro.sim.simulator import Simulator
from repro.storage import BufferPool, Catalog, DataType, Schema
from repro.tpch.generator import generate
from repro.tpch.queries import build


def test_a_session_between_batches_is_quiescent():
    catalog = generate(0.0005, 7)
    session = Database.open(catalog, RuntimeConfig.preset("laptop").with_(work_mem=4))
    session.check_quiescent()
    for name in ("q4", "q13", "q6", "q1"):
        session.submit(build(name, catalog))
    session.run_all()
    session.check_quiescent()
    assert session.memory.reserved == session.memory.in_use == 0
    assert session.pool.live_spill_files() == ()


@pytest.mark.in_flight
def test_a_failed_operator_leaves_its_query_in_flight(monkeypatch):
    catalog = generate(0.002, 7)
    session = Database.open(catalog, RuntimeConfig.preset("laptop").with_(work_mem=4))
    for name in ("q4", "q13", "q6", "q1"):
        session.submit(build(name, catalog))
    calls = [0]
    next_batch = HashJoinOperator.next_batch

    def failing(self, *args, **kwargs):
        calls[0] += 1
        if calls[0] == 40:
            raise RuntimeError("injected")
        return next_batch(self, *args, **kwargs)

    monkeypatch.setattr(HashJoinOperator, "next_batch", failing)
    with pytest.raises(SimulationError, match="q4#0/q4_join"):
        session.run_all()
    with pytest.raises(QuiescenceError) as leaked:
        session.check_quiescent()
    leaks = leaked.value.leaks

    def of_q4(kind):
        return [item for item in leaks[kind] if "q4" in item]

    # q4's join failed; the rest of q4 (and every other query) is still live.
    assert "q4#0/q4_join" not in leaks["tasks"]
    assert {"q4#0/q4_lineitem_scan", "q4#0/q4_agg", "q4#0/q4_sort", "q4#0/sink"} <= set(
        leaks["tasks"]
    )
    assert len(leaks["tasks"]) == 20
    # The join itself freed its grant and its spill files as it unwound.
    assert [item.split(" ")[0] for item in of_q4("grants")] == ["q4_agg", "q4_sort"]
    assert len(leaks["grants"]) == 10  # nine open grants and the pages they reserve
    assert not [item for item in leaks["grants"] if item.startswith("q4_join")]
    assert leaks["grants"][-1] == "9 pages reserved, 4 in use"
    assert leaks["spill files"] == ["file 2 of q13_precount (20 pages)"]
    assert len(leaks["scan tickets"]) == 3
    assert leaks["coordinator slots"] == ["q4#0", "q13#1", "q6#2", "q1#3"]
    assert leaks["decision records"] == ["q4#0", "q13#1", "q6#2", "q1#3"]
    assert "arrivals" not in leaks
    assert "q4_join" not in str(leaked.value)


PAGE_ROWS = 16


def _catalog():
    catalog = Catalog()
    catalog.create("a", Schema([("ak", DataType.INT), ("av", DataType.INT)])).insert_many(
        [(i % 500, i) for i in range(1500)]
    )
    catalog.create("b", Schema([("bk", DataType.INT), ("bw", DataType.INT)])).insert_many(
        [(i % 700, i) for i in range(2100)]
    )
    return catalog


def _governed_plan(catalog):
    """A sort over an aggregate over a hash join: at a few pages of
    ``work_mem`` every one of the three spills."""
    joined = hash_join(
        scan(catalog, "a", op_id="a"), scan(catalog, "b", op_id="b"), "ak", "bk", op_id="join"
    )
    grouped = aggregate(joined, ["bw"], [AggSpec("sum", "total", col("av"))], op_id="agg")
    return sort(grouped, [("total", False), ("bw", True)], op_id="order")


def _engine(catalog, work_mem, scans=False):
    sim = Simulator(processors=2)
    pool = BufferPool(24)
    engine = Engine(
        catalog,
        sim,
        costs=CostModel(io_page=100.0, spill_page=120.0),
        page_rows=PAGE_ROWS,
        buffer_pool=pool,
        memory=MemoryBroker(work_mem),
        scan_manager=ScanShareManager(pool) if scans else None,
    )
    return sim, engine


def _has_spilled(op):
    return any(spill.owner == op.node.op_id for spill in op.ctx.pool.live_spill_files())


@pytest.mark.parametrize(
    "operator, op_id",
    [(SortOperator, "order"), (AggregateOperator, "agg"), (HashJoinOperator, "join")],
)
def test_a_stage_that_fails_after_spilling_frees_its_grant_and_files(monkeypatch, operator, op_id):
    catalog = _catalog()
    plan = _governed_plan(catalog)
    sim, engine = _engine(catalog, work_mem=3)
    next_batch = operator.next_batch
    failed = []

    def failing(self, batch, port):
        if _has_spilled(self):
            failed.append(self)
            raise RuntimeError("injected")
        return next_batch(self, batch, port)

    monkeypatch.setattr(operator, "next_batch", failing)
    engine.execute(plan, "q")
    with pytest.raises(SimulationError, match=f"'q/{op_id}'"):
        sim.run()
    (op,) = failed
    assert op.grant.closed
    assert not [spill for spill in engine.pool.live_spill_files() if spill.owner == op_id]
    grants = engine.memory.grants()
    assert [grant.closed for grant in grants if grant.owner == op_id] == [True]
    assert engine.memory.reserved == sum(grant.pages for grant in grants if not grant.closed)
    assert engine.memory.in_use == sum(grant.used for grant in grants if not grant.closed)


def test_a_stage_stopped_at_a_request_it_cannot_serve_unwinds():
    """A put on a closed queue fails the task in the simulator, not in
    its generator; ``_fail`` closes the generator, so the elevator scan
    detaches its ticket."""
    catalog = _catalog()
    sim, engine = _engine(catalog, work_mem=3, scans=True)
    out = SimQueue("out", 4)
    out.closed = True
    task = sim.spawn(drive(ScanOperator(scan(catalog, "b"), engine.ctx, [out]), []), "scan")
    with pytest.raises(SimulationError, match="put on closed queue"):
        sim.run()
    assert engine.scan_manager.attached() == []
    assert task.gen.gi_frame is None


def test_closing_a_suspended_drive_closes_its_grant():
    """The mechanism a group-wide abort needs: ``gen.close()`` on a
    stage parked mid-input releases its budget and drops its runs."""
    catalog = _catalog()
    node = sort(scan(catalog, "b"), [("bw", False)], op_id="order")
    _, engine = _engine(catalog, work_mem=2)
    queue = SimQueue("in", 4)
    op = SortOperator(node, engine.ctx, [SimQueue("out", 4)])
    gen = drive(op, [[queue]])
    assert type(next(gen)) is Get
    rows = [(i % 700, i) for i in range(400)]
    for start in range(0, len(rows), PAGE_ROWS):
        request = gen.send(RowBatch.from_rows(tuple(rows[start : start + PAGE_ROWS]), 2))
        while type(request) is not Get:
            request = next(gen)
    assert _has_spilled(op) and engine.memory.reserved == op.grant.pages
    gen.close()
    assert op.grant.closed
    assert engine.memory.reserved == engine.memory.in_use == 0
    assert engine.pool.live_spill_files() == ()


def test_a_grant_closes_with_its_files_already_dropped(monkeypatch):
    """On a spilling session every operator drops its own runs, so the
    drop in ``MemoryGrant.close`` never runs on a drained stage (it
    cannot move a clock). The grant keeps no dropped file alive: some
    are collected before their grant closes."""
    opened = {}
    spill_file, close = MemoryGrant.spill_file, MemoryGrant.close
    still_open, collected = [], []

    def tracked_spill_file(self, page_rows):
        spill = spill_file(self, page_rows)
        opened.setdefault(id(self), []).append(weakref.ref(spill))
        return spill

    def checked_close(self):
        if not self.closed:
            files = [ref() for ref in opened.pop(id(self), ())]
            still_open.extend(spill for spill in files if spill is not None and not spill.dropped)
            collected.extend(spill for spill in files if spill is None)
        close(self)

    monkeypatch.setattr(MemoryGrant, "spill_file", tracked_spill_file)
    monkeypatch.setattr(MemoryGrant, "close", checked_close)
    gc.disable()
    try:
        catalog = generate(0.002, 7)
        session = Database.open(catalog, RuntimeConfig.preset("laptop").with_(work_mem=4))
        for name in ("q4", "q13", "q6", "q1"):
            session.submit(build(name, catalog))
        session.run_all()
    finally:
        gc.enable()
    assert session.pool.stats.spill_pages_written
    assert still_open == []
    assert collected


_LEAKY = '''
import pytest

from repro.db import Database
from repro.tpch.generator import generate
from repro.tpch.queries import build


def _pending():
    catalog = generate(0.0005, 7)
    session = Database.open(catalog, "laptop")
    session.submit(build("q6", catalog))
    return session


@pytest.fixture(scope="module")
def pending():
    return _pending()


def test_module_fixture(pending):
    pass


def test_body():
    _pending()


@pytest.mark.in_flight
def test_marked():
    _pending()


def test_drained():
    _pending().run_all()
'''


def test_the_suite_checks_sessions_of_every_scope(tmp_path):
    """``conftest.py`` checks a session a test body opens when the test
    returns, and one a module-scoped fixture opens when the module's
    fixtures are torn down; ``in_flight`` opts a test out."""
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copy(os.path.join(here, "conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_leaky.py").write_text(_LEAKY)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(here), "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout
    assert "1 failed, 3 passed, 1 error" in out, out
    assert "FAILED test_leaky.py::test_body - repro.errors.QuiescenceError" in out
    assert "ERROR test_leaky.py::test_drained - repro.errors.QuiescenceError" in out
