"""The decision audit trail: records, joins, and session integration."""

import json

import pytest

from repro.db import Database, RuntimeConfig
from repro.engine.plan import AggSpec
from repro.obs.audit import AuditLog, AuditRecord
from repro.policies.always import AlwaysShare
from repro.policies.model_guided import ModelGuidedPolicy
from repro.profiling.profiler import QueryProfiler
from repro.storage import Catalog, DataType, Schema


def _catalog(pages=8):
    catalog = Catalog()
    table = catalog.create("t", Schema([("k", DataType.INT)]))
    table.insert_many([(i,) for i in range(pages * 64)])
    return catalog


# ----------------------------------------------------------------------
# the log itself
# ----------------------------------------------------------------------


def test_append_assigns_seq_and_validates_outcome():
    log = AuditLog()
    first = log.append(query="q", signature="s", group_size=2,
                       source="advisor", outcome="share")
    second = log.append(query="q", signature="s", group_size=1,
                        source="solo", outcome="solo")
    assert (first.seq, second.seq) == (0, 1)
    assert len(log) == 2
    with pytest.raises(ValueError):
        log.append(query="q", signature="s", group_size=1,
                   source="solo", outcome="maybe")


def test_join_and_projection_error():
    record = AuditRecord(seq=0, query="q", signature="s", group_size=4,
                         source="advisor", outcome="share",
                         projected_shared_rate=2e-3,
                         projected_unshared_rate=1e-3)
    assert not record.joined and record.projection_error is None
    assert record.projected_rate == 2e-3  # the chosen (share) arm
    record.join(latency=1000.0, physical_reads=64)
    assert record.joined
    assert record.measured_rate == 4 / 1000.0
    assert record.projection_error == pytest.approx((2e-3 - 4e-3) / 4e-3)
    solo = AuditRecord(seq=1, query="q", signature="s", group_size=1,
                       source="solo", outcome="solo",
                       projected_unshared_rate=1e-3)
    assert solo.projected_rate == 1e-3
    # A dop > 1 arm is scored only against its own four-way rate.
    parallel = AuditRecord(seq=2, query="q", signature="s", group_size=2,
                           source="policy", outcome="parallel",
                           projected_unshared_rate=1e-3)
    assert parallel.projected_rate is None
    parallel.projected_mode_rate = 4e-3
    assert parallel.projected_rate == 4e-3


def test_mean_abs_error_and_exports():
    log = AuditLog()
    r = log.append(query="q", signature="s", group_size=2,
                   source="advisor", outcome="share",
                   projected_shared_rate=3e-3)
    r.join(latency=1000.0)
    assert log.joined_records() == (r,)
    assert log.mean_abs_error() == pytest.approx(abs(3e-3 - 2e-3) / 2e-3)
    payload = json.loads(log.to_json())
    assert payload[0]["projection_error"] == r.projection_error
    table = log.render()
    assert "advisor" in table and "share" in table
    assert AuditLog().render() == "(no audited decisions)"
    assert AuditLog().mean_abs_error() is None


# ----------------------------------------------------------------------
# session integration
# ----------------------------------------------------------------------


def test_advisor_routing_is_audited_and_joined():
    session = Database.open(_catalog(), "laptop")
    query = session.table("t", columns=["k"]).named("probe").build()
    for i in range(3):
        session.submit(query, label=f"c{i}")
    results = session.run_all()
    log = session.audit_log()
    assert len(log) == 1
    (record,) = log.records
    assert record.source == "advisor"
    assert record.outcome in ("share", "solo")
    assert record.group_size == 3
    assert record.joined
    assert record.projected_z is not None
    assert record.projection_error is not None
    assert record.measured_physical_reads is not None
    # Every member's result points back at the record.
    for result in results:
        assert result.audit == (record,)


def test_forced_and_solo_routing_are_audited():
    session = Database.open(_catalog(), "laptop")
    query = session.table("t", columns=["k"]).named("probe").build()
    session.submit(query, label="a", share=True)
    session.submit(query, label="b", share=True)
    session.submit(query, label="c", share=False)
    session.run_all()
    by_source = {r.source: r for r in session.audit_log()}
    assert by_source["forced"].outcome in ("share",)
    assert sorted(r.outcome for r in session.audit_log()) == ["share", "solo"]
    assert all(r.joined for r in session.audit_log())


def test_singleton_batch_is_audited_solo():
    session = Database.open(_catalog(), "laptop")
    result = session.run(session.table("t", columns=["k"]), label="only")
    (record,) = session.audit_log().records
    assert (record.source, record.outcome) == ("solo", "solo")
    assert record.group_size == 1
    assert result.audit == (record,)


def test_policy_routing_is_audited():
    session = Database.open(_catalog(), "laptop", policy=AlwaysShare())
    query = session.table("t", columns=["k"]).named("probe").build()
    for i in range(2):
        session.submit(query, label=f"c{i}")
    session.run_all()
    (record,) = session.audit_log().records
    assert (record.source, record.outcome) == ("policy", "share")
    assert record.joined


def test_advise_records_projection_inputs():
    """A cold laptop session's advice carries the outlook's I/O and
    drift projections, not just the model rates."""
    session = Database.open(_catalog(pages=16), "laptop")
    decision = session.advise(session.table("t", columns=["k"]), 4)
    (record,) = session.audit_log().records
    assert record.source == "advisor"
    assert record.projected_z == decision.benefit
    assert record.projected_shared_rate == decision.shared_rate
    assert record.projected_unshared_rate == decision.unshared_rate
    assert record.projected_io_extra is not None
    assert record.projected_drift_share is not None
    assert not record.joined  # advice alone launches nothing


@pytest.mark.parametrize(
    "preset, m, dop",
    [("laptop", 4, 1), ("laptop", 4, 4), ("cmp32", 2, 4)],
    ids=["1", "4", "cmp32-parallel"],
)
def test_model_guided_policy_decisions_carry_rates(preset, m, dop):
    """A ModelGuidedPolicy verdict routed through run_all — binary
    (``should_share``) at dop 1, four-way (``choose_mode``) at dop 4 —
    is the one record of its decision, carries the rates it was priced
    with, and is scored against the measurement. A four-way verdict
    (``both`` on the laptop, ``parallel`` on cmp32) is scored against
    the rate of the arm it chose, not a serial one."""
    catalog = _catalog()
    config = RuntimeConfig.preset(preset).with_(dop=dop)
    probe = Database.open(catalog, config)
    query = probe.table("t", columns=["k"]).agg(AggSpec("count", "n")).named("probe").build()
    profiler = QueryProfiler(catalog, costs=config.cost_model, page_rows=config.page_rows)
    profile = profiler.profile(query.plan, query.pivot_op_id, label=query.name)
    policy = ModelGuidedPolicy({query.name: (profile.to_query_spec(), query.pivot_op_id)})
    session = Database.open(catalog, config, policy=policy)
    assert session.execution_settings(query)[1] == dop
    for i in range(m):
        session.submit(query, label=f"c{i}")
    results = session.run_all()
    (record,) = session.audit_log().records
    assert (record.source, record.group_size) == ("policy", m)
    assert record.projected_z is not None
    assert record.projected_shared_rate is not None
    assert record.projected_unshared_rate is not None
    assert record.projected_io_extra is not None
    assert record.joined and record.projection_error is not None
    assert all(r.decision is not None and r.audit == (record,) for r in results)
    if dop > 1:
        projection = policy.choose_mode(query.name, m, config.processors, dop)
        assert record.outcome == projection.mode == ("both" if m == 4 else "parallel")
        assert record.projected_rate == m / projection.makespans[projection.mode]
