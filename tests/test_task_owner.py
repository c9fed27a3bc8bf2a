"""A task knows its owner and its operator.

Every engine task carries the :class:`~repro.engine.packet.GroupHandle`
that spawned it (``Task.owner``, sinks included) and the stage-row key
it runs (``Task.op_id``, ``None`` for sinks). The stage fold, the
profiler's observations and a session's per-batch metrics scope read
``op_id`` directly, so an operator whose id contains a slash or reads
``"sink"`` keeps its own row; a failing stage task reaches its group's
``fail``. Task names keep the ``<prefix>/<op_id>`` convention, and the
last test pins that the two agree.
"""

import pytest

from repro.db import Database
from repro.db.builder import Query
from repro.engine import AggSpec, Engine, aggregate, hash_join, limit, scan, stage_rows
from repro.engine.operators.limit import LimitOperator
from repro.engine.packet import GroupHandle
from repro.errors import DeadlockError, SimulationError
from repro.profiling import observations_from_tasks
from repro.sim import Simulator
from repro.sim.task import FAILED
from repro.storage import Catalog, DataType, Schema

ROWS = 600
GROUPS = 23


def _catalog():
    catalog = Catalog()
    catalog.create("t", Schema([("g", DataType.INT), ("k", DataType.INT)])).insert_many(
        [(i % GROUPS, i) for i in range(ROWS)]
    )
    catalog.create("d", Schema([("dg", DataType.INT), ("w", DataType.INT)])).insert_many(
        [(g, 2 * g) for g in range(GROUPS)]
    )
    return catalog


CATALOG = _catalog()


def _odd_plan():
    """A scan whose op_id has a slash under a limit whose op_id is
    ``"sink"``: the two ids a name parser gets wrong."""
    return limit(scan(CATALOG, "t", columns=["g", "k"], op_id="a/b"), 50, op_id="sink")


def test_stage_rows_key_each_operator_by_its_own_op_id():
    sim = Simulator(processors=2)
    engine = Engine(CATALOG, sim)
    handle = engine.execute(_odd_plan(), "q")
    sim.run()
    assert len(handle.rows) == 50
    assert sorted(op_id for op_id, _ in stage_rows(sim)) == ["a/b", "sink"]
    assert all(row[0] == 1 for _, row in stage_rows(sim))
    observations = observations_from_tasks(_odd_plan(), "a/b", 1, sim.tasks)
    assert sorted(op_id for op_id, _ in observations) == ["a/b", "sink"]


def test_batch_metrics_scope_keys_each_operator_by_its_own_op_id():
    session = Database.open(CATALOG, "laptop")
    result = session.run(Query(_odd_plan(), None, "odd"))
    assert len(result.rows) == 50
    stage_keys = [key for key in result.metrics if key.startswith("stage.")]
    assert {key[len("stage.") : key.rindex(".")] for key in stage_keys} == {"a/b", "sink"}


def _agg_plan():
    return aggregate(scan(CATALOG, "t", columns=["g", "k"]), ("g",), [AggSpec("count", "n")])


def _join_plan():
    return hash_join(
        scan(CATALOG, "d", columns=["dg", "w"]),
        scan(CATALOG, "t", columns=["g", "k"]),
        build_key="dg",
        probe_key="g",
    )


def _serial(engine):
    return engine.execute_group([_agg_plan()], None, ["solo"])


def _shared(engine):
    plans = [limit(_agg_plan(), 5), limit(_agg_plan(), 7)]
    return engine.execute_group(plans, plans[0].children[0].op_id, ["m0", "m1"])


def _parallel_aggregate(engine):
    return engine.execute_group([_agg_plan()], None, ["pagg"], dop=4)


def _parallel_join(engine):
    return engine.execute_group([_join_plan()], None, ["pjoin"], dop=4)


@pytest.mark.parametrize("launch", [_serial, _shared, _parallel_aggregate, _parallel_join])
def test_task_names_agree_with_op_ids(launch):
    sim = Simulator(processors=4)
    group = launch(Engine(CATALOG, sim))
    spawned = list(sim.tasks)
    stage = list(group.tasks)
    sinks = [task for task in spawned if all(task is not other for other in stage)]
    assert stage and len(sinks) == group.size
    for task in stage:
        assert task.owner is group
        assert task.op_id == task.name.rsplit("/", 1)[-1]
    for task in sinks:
        assert task.owner is group and task.op_id is None
        assert task.name.endswith("/sink")
    if launch in (_parallel_aggregate, _parallel_join):
        assert any(task.op_id.endswith((".exchange", ".gather", ".merge")) for task in stage)
    sim.run()
    assert group.done
    assert all(task.owner is None for task in spawned)


def _broken_next_batch(self, batch, port):
    raise ValueError("limit broke")
    yield


def test_failing_stage_reaches_its_group(monkeypatch):
    failures = []

    def fail(group, task, error):
        failures.append((group.group_id, task.op_id, task, error))

    monkeypatch.setattr(GroupHandle, "fail", fail)
    monkeypatch.setattr(LimitOperator, "next_batch", _broken_next_batch)
    sim = Simulator(processors=2)
    engine = Engine(CATALOG, sim)
    engine.execute(_agg_plan(), "first")
    group = engine.execute_group([limit(_agg_plan(), 5, op_id="top")], None, ["q"])
    # The group's fail returns, so the run goes on until the sink
    # starves behind the dead stage.
    with pytest.raises(DeadlockError):
        sim.run()
    ((group_id, op_id, task, error),) = failures
    assert (group_id, op_id) == (group.group_id, "top")
    assert task.state == FAILED and task.error is error and task.owner is None
    assert isinstance(error, SimulationError) and isinstance(error.__cause__, ValueError)


def test_default_group_fail_raises_the_error(monkeypatch):
    monkeypatch.setattr(LimitOperator, "next_batch", _broken_next_batch)
    sim = Simulator(processors=2)
    engine = Engine(CATALOG, sim)
    group = engine.execute_group([limit(_agg_plan(), 5, op_id="top")], None, ["q"])
    (top,) = [task for task in group.tasks if task.op_id == "top"]
    with pytest.raises(SimulationError, match="limit broke") as raised:
        sim.run()
    assert top.state == FAILED and top.error is raised.value and top.owner is None
    assert len(sim._idle) == sim.n_processors
