"""``Session.check_quiescent``: a session between batches holds nothing.

Every batch that runs to its end leaves no live task, open grant,
spill file, elevator ticket or coordinator entry (the autouse
fixture in ``conftest.py`` asserts it after every test that opens a
session). A batch that raises leaves its work behind; the check names
it. The probe below is that case: one operator failing mid-run. It
documents the leak as it stands, until a failing query releases what
it holds.
"""

import os
import shutil
import subprocess
import sys

import pytest

from repro.db import Database, RuntimeConfig
from repro.engine.operators.hash_join import HashJoinOperator
from repro.errors import QuiescenceError, SimulationError
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
    assert [item.split(" ")[0] for item in of_q4("grants")] == ["q4_join", "q4_agg", "q4_sort"]
    assert len(leaks["grants"]) == 11  # ten open grants and the pages they reserve
    assert leaks["grants"][-1] == "13 pages reserved, 4 in use"
    spills = of_q4("spill files")
    assert len(spills) == 4 and all(" of q4_join (" in item for item in spills)
    assert len(leaks["spill files"]) == 5
    assert len(leaks["scan tickets"]) == 3
    assert leaks["coordinator slots"] == ["q4#0", "q13#1", "q6#2", "q1#3"]
    assert leaks["decision records"] == ["q4#0", "q13#1", "q6#2", "q1#3"]
    assert "arrivals" not in leaks
    assert "q4_join" in str(leaked.value)


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
