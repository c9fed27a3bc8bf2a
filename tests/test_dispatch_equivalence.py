"""One dispatcher, identical answers at every entry point.

``Session.run_all`` and ``Server`` both route through the session's
``SharingCoordinator``. The same batch submitted through either door —
at every preset, policy, dop and batch size — must produce the same
rows, the same per-query finish times, the same launched groups and
the same audit trail, measurements and projection errors included
(the coordinator scores every record, whichever door launched it).
(``serve_trace`` runs the clock on to its ``until=``, so the end
clock is not the comparison.)
"""

import pytest

from repro.db import PRESETS, Database, QueryBuilder, RuntimeConfig
from repro.engine.expressions import col, lt
from repro.engine.plan import AggSpec
from repro.policies import AlwaysShare, NeverShare
from repro.server import AdmitAll, Arrival, Server
from repro.storage import Catalog, DataType, Schema

K = 3
POLICIES = {"advisor": lambda: None, "always": AlwaysShare, "never": NeverShare}


@pytest.fixture(scope="module")
def catalog():
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("g", DataType.INT), ("v", DataType.FLOAT)])
    state = 77
    for name in ("t", "u"):
        rows = []
        for i in range(1500):
            state = (state * 48271) % 2147483647
            rows.append((i, i % 7, state / 2147483647.0))
        catalog.create(name, schema).insert_many(rows)
    return catalog


def batch(catalog):
    """K same-signature aggregates plus one unrelated query."""
    grouped = (
        QueryBuilder(catalog, "t")
        .where(lt(col("v"), 0.9))
        .agg(AggSpec("sum", "total", col("v")), AggSpec("count", "n"), by=("g",))
        .named("grouped")
        .build()
    )
    other = QueryBuilder(catalog, "u", columns=["k", "v"]).named("other").build()
    return [(f"grouped#{i}", grouped) for i in range(K)] + [("other#0", other)]


def audit_trail(session):
    """Every record's routing and, joined by the coordinator when its
    last member finished, its measurement — the same at every door."""
    return [
        (
            r.source,
            r.outcome,
            r.group_size,
            r.measured_latency,
            r.measured_physical_reads,
            r.projection_error,
        )
        for r in session.audit_log()
    ]


def open_session(catalog, preset, policy, dop, batch_size):
    config = RuntimeConfig.preset(preset).with_(dop=dop, batch_size=batch_size)
    return Database.open(catalog, config, policy=POLICIES[policy]())


def via_run_all(session, entries, share=None):
    for label, query in entries:
        session.submit(query, label=label, share=share)
    results = session.run_all()
    return (
        {r.label: (r.rows, r.finished_at) for r in results},
        list(session.coordinator.launched_group_sizes),
        audit_trail(session),
    )


def via_server(session, entries):
    server = Server(session, admission=AdmitAll())
    report = server.serve_trace(
        [Arrival(at=0.0, query=query, label=label) for label, query in entries],
        drain=10_000_000.0,
    )
    assert report.completed == len(entries)
    return (
        {r.label: (list(r.rows), r.finished_at) for r in report.records},
        list(report.launched_group_sizes),
        audit_trail(session),
    )


def via_coordinator(session, entries, share):
    tickets = [
        session.coordinator.submit(query, label, share=share)
        for label, query in entries
    ]
    session.coordinator.drain()
    session.sim.run()
    return (
        {t.label: (t.handle.rows, t.handle.finished_at) for t in tickets},
        list(session.coordinator.launched_group_sizes),
        audit_trail(session),
    )


@pytest.mark.parametrize("batch_size", [None, 7])
@pytest.mark.parametrize("dop", [1, 4])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_run_all_and_server_agree(catalog, preset, policy, dop, batch_size):
    entries = batch(catalog)
    batched = via_run_all(
        open_session(catalog, preset, policy, dop, batch_size), entries
    )
    served = via_server(
        open_session(catalog, preset, policy, dop, batch_size), entries
    )
    assert served == batched
    # The comparison is not vacuous: the K candidates were routed as
    # one prospective group, the unrelated query on its own.
    _, group_sizes, trail = batched
    assert sum(group_sizes) == K + 1
    assert sorted(size for _, _, size, *_ in trail) == [1, K]
    assert all(latency is not None for _, _, _, latency, _, _ in trail)


@pytest.mark.parametrize("batch_size", [None, 7])
@pytest.mark.parametrize("dop", [1, 4])
@pytest.mark.parametrize("share", [True, False])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_forced_share_agrees_with_direct_submission(
    catalog, preset, share, dop, batch_size
):
    """``Arrival`` carries no force flag, so forced routing is compared
    against the coordinator's own door."""
    entries = batch(catalog)
    batched = via_run_all(
        open_session(catalog, preset, "never", dop, batch_size), entries, share=share
    )
    direct = via_coordinator(
        open_session(catalog, preset, "never", dop, batch_size), entries, share
    )
    assert direct == batched
    _, group_sizes, trail = batched
    assert group_sizes == ([K, 1] if share else [1] * (K + 1))
    assert {source for source, *_ in trail} <= {"forced", "solo"}
