"""Unit tests for the open-system service tier.

Admission policies, latency statistics, the serve loop's accounting,
open-system behaviour under ``AdmitAll``, facade wiring
(``Database.serve`` / ``Server.open``), and the observability surface
(metrics family, audit records, trace events).
"""

import math
import random

import pytest

from repro.db import Database, RuntimeConfig
from repro.errors import EngineError, PolicyError
from repro.policies import AlwaysShare, NeverShare
from repro.server import (
    AdmissionView,
    AdmitAll,
    Arrival,
    LatencyBound,
    LatencyStats,
    QueueDepthBound,
    Server,
)
from repro.storage import TenantShare
from repro.tpch.generator import generate
from repro.tpch.queries import build
from repro.workload import WorkloadMix


@pytest.fixture(scope="module")
def catalog():
    return generate(scale_factor=0.0005, seed=61)


@pytest.fixture(scope="module")
def q6(catalog):
    return build("q6", catalog)


def make_server(catalog, *, processors=4, policy=None, config=None, **kwargs):
    config = config or RuntimeConfig(processors=processors)
    return Server.open(catalog, config, policy=policy, **kwargs)


def serve_q6(server, q6, *, rate, horizon, drain=0.0, seed=0, **kwargs):
    return server.serve(
        WorkloadMix.single("q6"), {"q6": q6},
        arrival_rate=rate, horizon=horizon, drain=drain, seed=seed, **kwargs
    )


class TestAdmissionPolicies:
    def view(self, depth=0, latency=0.0):
        return AdmissionView(
            queue_depth=depth, in_flight=0, projected_latency=latency
        )

    def test_admit_all(self):
        assert AdmitAll().admit(self.view(depth=10 ** 6))

    def test_queue_depth_bound(self):
        policy = QueueDepthBound(4)
        assert policy.admit(self.view(depth=3))
        assert not policy.admit(self.view(depth=4))

    def test_latency_bound(self):
        policy = LatencyBound(100.0)
        assert policy.admit(self.view(latency=100.0))
        assert not policy.admit(self.view(latency=100.1))

    def test_validation(self):
        with pytest.raises(PolicyError):
            QueueDepthBound(0)
        with pytest.raises(PolicyError):
            LatencyBound(0.0)

    def test_shedding_is_monotone_in_queue_depth(self):
        """Once a depth is shed, every deeper queue is shed too."""
        policy = QueueDepthBound(7)
        admitted = [policy.admit(self.view(depth=d)) for d in range(20)]
        assert admitted == sorted(admitted, reverse=True)


class TestLatencyStats:
    def test_empty_stats_are_zero(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.p50 == 0.0 and stats.p99 == 0.0
        assert stats.mean == 0.0 and stats.max == 0.0

    def test_quantiles_interpolate(self):
        stats = LatencyStats()
        for v in (10.0, 20.0, 30.0, 40.0):
            stats.add(v)
        assert stats.p50 == pytest.approx(25.0)
        assert stats.quantile(0.0) == 10.0
        assert stats.quantile(1.0) == 40.0
        assert stats.quantile(1.0 / 3.0) == pytest.approx(20.0)

    def test_insertion_order_does_not_matter(self):
        a, b = LatencyStats(), LatencyStats()
        for v in (5.0, 1.0, 3.0):
            a.add(v)
        for v in (1.0, 3.0, 5.0):
            b.add(v)
        assert a.to_dict() == b.to_dict()

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            LatencyStats().quantile(1.5)


class TestServeLoop:
    def test_conservation_and_outcomes(self, catalog, q6):
        server = make_server(catalog, policy=AlwaysShare(),
                             admission=QueueDepthBound(4))
        report = serve_q6(server, q6, rate=1.0 / 2_000.0,
                          horizon=200_000.0, drain=50_000.0, seed=3)
        assert report.submitted > 20
        assert report.submitted == (
            report.completed + report.shed + report.backlog
        )
        outcomes = {r.outcome for r in report.records}
        assert outcomes <= {"completed", "shed", "backlog"}
        assert report.shed > 0  # the bound actually bit at this rate

    def test_deterministic_reports(self, catalog, q6):
        kwargs = dict(rate=1.0 / 5_000.0, horizon=150_000.0,
                      drain=50_000.0, seed=9)
        a = serve_q6(make_server(catalog, policy=NeverShare()), q6, **kwargs)
        b = serve_q6(make_server(catalog, policy=NeverShare()), q6, **kwargs)
        assert a.submitted == b.submitted
        assert a.latency.to_dict() == b.latency.to_dict()
        assert [r.finished_at for r in a.records] == [
            r.finished_at for r in b.records
        ]

    def test_results_bit_identical_to_solo_run(self, catalog, q6):
        server = make_server(catalog, policy=AlwaysShare(), keep_rows=True)
        report = serve_q6(server, q6, rate=1.0 / 10_000.0,
                          horizon=100_000.0, drain=200_000.0, seed=4)
        solo = Database(catalog, RuntimeConfig(processors=4)).session()
        from repro.db.builder import Query

        reference = solo.run(
            Query(plan=q6.plan, pivot_op_id=q6.pivot, name="q6"),
            share=False,
        ).rows
        completed = [r for r in report.records if r.outcome == "completed"]
        assert completed
        for record in completed:
            assert record.rows == tuple(reference)

    def test_serve_trace_and_horizon_default(self, catalog, q6):
        server = make_server(catalog, policy=NeverShare())
        arrivals = [Arrival(at=float(i) * 100.0, query=q6) for i in range(5)]
        report = server.serve_trace(arrivals, drain=500_000.0)
        assert report.arrival_rate is None
        assert report.horizon == 400.0
        assert report.submitted == 5
        assert report.completed == 5
        assert report.backlog == 0

    def test_goodput_excludes_drain_completions(self, catalog, q6):
        server = make_server(catalog, policy=NeverShare())
        arrivals = [Arrival(at=0.0, query=q6)]
        report = server.serve_trace(arrivals, horizon=1.0, drain=500_000.0)
        assert report.completed == 1
        assert report.goodput == 0.0  # finished after the horizon

    def test_max_inflight_gates_dispatch(self, catalog, q6):
        server = make_server(catalog, policy=NeverShare(), max_inflight=1)
        arrivals = [Arrival(at=0.0, query=q6), Arrival(at=1.0, query=q6)]
        report = server.serve_trace(arrivals, drain=500_000.0)
        assert report.completed == 2
        second = report.records[1]
        assert second.queue_wait > 0  # waited for the first to finish
        queued = [r for r in server.session.audit_log()
                  if r.source == "server" and r.outcome == "queue"]
        assert len(queued) == 1

    def test_validation(self, catalog, q6):
        server = make_server(catalog)
        with pytest.raises(PolicyError):
            make_server(catalog, max_inflight=0)
        with pytest.raises(EngineError):
            Arrival(at=-1.0, query=q6)
        with pytest.raises(EngineError):
            serve_q6(server, q6, rate=0.0, horizon=1.0)
        with pytest.raises(EngineError):
            serve_q6(server, q6, rate=1.0, horizon=0.0)
        with pytest.raises(EngineError):
            serve_q6(server, q6, rate=1.0, horizon=1.0, drain=-1.0)

    def test_second_serve_starts_warm(self, catalog, q6):
        """The session clock persists: a second serve call runs later
        on the same timeline and reports only its own arrivals."""
        server = make_server(catalog, policy=NeverShare())
        first = serve_q6(server, q6, rate=1.0 / 10_000.0,
                         horizon=50_000.0, drain=100_000.0, seed=1)
        clock_after_first = server.session.now
        second = serve_q6(server, q6, rate=1.0 / 10_000.0,
                          horizon=50_000.0, drain=100_000.0, seed=2)
        assert clock_after_first > 0
        assert second.submitted > 0
        assert server.total_submitted == first.submitted + second.submitted
        assert all(
            r.submitted_at >= clock_after_first for r in second.records
        )


class TestOpenSystem:
    """Admission wide open (``AdmitAll``), ``Server.serve`` is the
    paper's Section 5.1 open system: Poisson arrivals independent of
    completions, nothing shed."""

    def serve(self, catalog, q6, *, processors, **kwargs):
        server = make_server(catalog, processors=processors, policy=NeverShare(),
                             admission=AdmitAll(), keep_rows=False)
        return serve_q6(server, q6, **kwargs)

    def test_light_load_is_stable(self, catalog, q6):
        report = self.serve(catalog, q6, processors=8, rate=1.0 / 50_000.0,
                            horizon=600_000.0, drain=100_000.0, seed=1)
        assert report.submitted > 3
        assert report.completed == report.submitted
        assert report.backlog == 0
        assert report.latency.max >= report.latency.mean > 0

    def test_overload_builds_backlog(self, catalog, q6):
        """Arrivals far above service capacity leave a backlog."""
        report = self.serve(catalog, q6, processors=1, rate=1.0 / 500.0,
                            horizon=100_000.0, seed=1)
        assert report.shed == 0
        assert report.backlog > 0.05 * report.submitted

    def test_throughput_tracks_arrivals_when_stable(self, catalog, q6):
        """Open-system property: response time does not set throughput;
        the arrival process does."""
        report = self.serve(catalog, q6, processors=8, rate=1.0 / 40_000.0,
                            horizon=800_000.0, drain=200_000.0, seed=3)
        expected = report.horizon * report.arrival_rate
        assert report.submitted == pytest.approx(expected, rel=0.5)
        assert report.completed == report.submitted

    def test_poisson_schedule_matches_seeded_replay(self, catalog, q6):
        """The server submits exactly the arrivals an offline replay of
        its seeded exponential-gap process places before the horizon —
        the drain admits none."""
        rate, horizon, seed = 1.0 / 30_000.0, 500_000.0, 11
        report = self.serve(catalog, q6, processors=8, rate=rate,
                            horizon=horizon, drain=200_000.0, seed=seed)
        rng = random.Random(seed)
        t, expected = 0.0, 0
        while True:
            t += -math.log(1.0 - rng.random()) / rate
            if t >= horizon:
                break
            expected += 1
        assert report.submitted == expected
        assert all(r.submitted_at < horizon for r in report.records)


class TestAdmissionInTheLoop:
    def test_sheds_are_audited_with_server_source(self, catalog, q6):
        server = make_server(catalog, policy=AlwaysShare(),
                             admission=QueueDepthBound(2))
        report = serve_q6(server, q6, rate=1.0 / 1_000.0,
                          horizon=100_000.0, seed=5)
        assert report.shed > 0
        audited = [r for r in server.session.audit_log()
                   if r.source == "server" and r.outcome == "shed"]
        assert len(audited) == report.shed

    def test_admit_all_never_sheds(self, catalog, q6):
        server = make_server(catalog, policy=AlwaysShare(),
                             admission=AdmitAll())
        report = serve_q6(server, q6, rate=1.0 / 1_000.0,
                          horizon=50_000.0, seed=5)
        assert report.shed == 0

    def test_projected_latency_uses_the_service_ewma(self, catalog, q6):
        server = make_server(catalog, policy=NeverShare())
        assert server.view().projected_latency == 0.0  # no completions yet
        server.serve_trace([Arrival(at=0.0, query=q6)], drain=500_000.0)
        assert server.view().projected_latency > 0.0

    def test_latency_bound_sheds_under_load(self, catalog, q6):
        server = make_server(catalog, processors=1, policy=NeverShare(),
                             admission=LatencyBound(20_000.0))
        report = serve_q6(server, q6, rate=1.0 / 2_000.0,
                          horizon=200_000.0, seed=6)
        assert report.shed > 0
        assert report.backlog < report.submitted - report.shed + 1


class TestTenants:
    CONFIG = dict(processors=4, pool_pages=64, page_rows=16)

    def tenant_config(self):
        return RuntimeConfig(
            tenants=(
                TenantShare("acme", 40, tables=("lineitem",)),
                TenantShare("beta", 8),
            ),
            **self.CONFIG,
        )

    def test_tenant_weights_split_the_stream(self, catalog, q6):
        server = make_server(catalog, config=self.tenant_config(),
                             policy=NeverShare())
        report = serve_q6(server, q6, rate=1.0 / 5_000.0,
                          horizon=200_000.0, drain=300_000.0, seed=8,
                          tenant_weights={"acme": 0.7, "beta": 0.3})
        assert set(report.tenants) == {"acme", "beta"}
        assert report.tenants["acme"].submitted > report.tenants["beta"].submitted
        assert sum(t.submitted for t in report.tenants.values()) == report.submitted
        assert sum(t.backlog for t in report.tenants.values()) == report.backlog

    def test_isolation_holds_after_serving(self, catalog, q6):
        server = make_server(catalog, config=self.tenant_config(),
                             policy=AlwaysShare())
        serve_q6(server, q6, rate=1.0 / 5_000.0,
                 horizon=100_000.0, drain=200_000.0, seed=8,
                 tenant_weights={"acme": 0.5, "beta": 0.5})
        server.session.pool.check_isolation()

    def test_tenant_metrics_exported(self, catalog, q6):
        server = make_server(catalog, config=self.tenant_config(),
                             policy=NeverShare())
        serve_q6(server, q6, rate=1.0 / 10_000.0,
                 horizon=50_000.0, drain=100_000.0, seed=8)
        snapshot = server.session.metrics().snapshot()
        assert snapshot["tenant.acme.quota"] == 40.0
        assert snapshot["tenant.beta.quota"] == 8.0
        assert snapshot["tenant.acme.resident"] <= 40.0


class TestObservability:
    def test_server_metric_family(self, catalog, q6):
        server = make_server(catalog, policy=NeverShare(),
                             admission=QueueDepthBound(2))
        report = serve_q6(server, q6, rate=1.0 / 1_000.0,
                          horizon=50_000.0, drain=200_000.0, seed=5)
        snapshot = server.session.metrics().snapshot()
        assert snapshot["server.submitted"] == float(report.submitted)
        assert snapshot["server.shed"] == float(report.shed)
        assert snapshot["server.completed"] == float(report.completed)
        assert snapshot["server.queue_depth"] == 0.0
        assert snapshot["server.in_flight"] == float(report.backlog)

    def test_trace_events_cover_the_lifecycle(self, catalog, q6):
        config = RuntimeConfig(processors=4, trace=True)
        server = make_server(catalog, config=config, policy=NeverShare(),
                             admission=QueueDepthBound(1))
        serve_q6(server, q6, rate=1.0 / 1_000.0,
                 horizon=50_000.0, drain=200_000.0, seed=5)
        names = {
            e.name for e in server.session.tracer.events
            if e.cat == "server"
        }
        assert {"arrive", "dispatch", "complete", "shed"} <= names

    def test_render_mentions_every_tenant(self, catalog, q6):
        server = make_server(catalog, policy=NeverShare())
        report = serve_q6(server, q6, rate=1.0 / 10_000.0,
                          horizon=50_000.0, drain=100_000.0, seed=5,
                          tenant_weights={"acme": 1.0})
        text = report.render()
        assert "tenant acme" in text
        assert "goodput" in text and "p99" in text


class TestFacadeWiring:
    def test_database_serve_builds_a_server(self, catalog, q6):
        db = Database(catalog, RuntimeConfig(processors=4))
        server = db.serve(policy=NeverShare(), max_inflight=2)
        assert isinstance(server, Server)
        assert server.max_inflight == 2
        report = server.serve_trace([Arrival(at=0.0, query=q6)],
                                    drain=500_000.0)
        assert report.completed == 1

    def test_open_accepts_preset_names(self, catalog, q6):
        server = Server.open(catalog, "laptop", policy=NeverShare())
        report = server.serve_trace([Arrival(at=0.0, query=q6)],
                                    drain=500_000.0)
        assert report.completed == 1

    def _served_aggregate(self, catalog, config, dop=None):
        """One lineitem aggregate served alone at an idle instant."""
        from repro.db import QueryBuilder
        from repro.engine.expressions import col
        from repro.engine.plan import AggSpec

        builder = (
            QueryBuilder(catalog, "lineitem")
            .agg(AggSpec("sum", "qty", col("l_quantity")), by=("l_suppkey",))
            .named("by_supplier")
        )
        if dop is not None:
            builder = builder.parallel(dop)
        query = builder.build()
        server = make_server(catalog, config=config)
        report = server.serve_trace([Arrival(at=0.0, query=query)],
                                    drain=5_000_000.0)
        (record,) = report.records
        assert record.outcome == "completed"
        return server, query, record

    def test_parallel_query_is_served_in_parallel(self, catalog):
        """``.parallel(n)`` reaches the server's launch: the fabric's
        stages ran and the rows are the serial answer."""
        from repro.engine.reference import execute_reference

        server, query, record = self._served_aggregate(
            catalog, RuntimeConfig(processors=4), dop=4
        )
        names = server.session.metrics().snapshot()
        assert any(name.endswith(".exchange.instances") for name in names)
        assert any(name.endswith(".merge.instances") for name in names)
        assert list(record.rows) == execute_reference(query.plan, catalog)
        assert [r.outcome for r in server.session.audit_log()] == ["parallel"]

    def test_config_dop_and_batch_size_are_honoured(self, catalog):
        """Same trace, same rows, at every setting — and a different
        timeline, because the setting was not dropped on the way."""
        _, _, default = self._served_aggregate(catalog, RuntimeConfig(processors=4))
        for changes in (dict(batch_size=7), dict(dop=4)):
            _, _, record = self._served_aggregate(
                catalog, RuntimeConfig(processors=4, **changes)
            )
            assert record.rows == default.rows
            assert record.finished_at != default.finished_at

    def test_default_policy_is_the_session_advisor(self, catalog, q6):
        server = make_server(catalog)
        assert server.policy is None
        assert server.coordinator is server.session.coordinator
        report = serve_q6(server, q6, rate=1.0 / 5_000.0,
                          horizon=100_000.0, drain=300_000.0, seed=2)
        assert report.completed > 0
        # The advisor was actually consulted: its verdicts were audited,
        # one record per routing decision.
        log = server.session.audit_log()
        sources = {r.source for r in log}
        assert "advisor" in sources
        assert sources <= {"advisor", "solo", "server"}
        # And scored: the coordinator joined every record that launched.
        assert all(r.joined for r in log if r.source != "server")
        assert log.mean_abs_error() is not None


# The served model error, recorded at its cell: a scoring or model
# regression fails the pin; an improvement re-records it.
SERVED_ERROR_PINS = {"light": 0.012979, "overload": 2.243590}


class TestServedProjectionError:
    def serve_cell(self, catalog, q6, cell):
        if cell == "light":
            server = make_server(catalog)
            serve_q6(server, q6, rate=1.0 / 5_000.0,
                     horizon=100_000.0, drain=300_000.0, seed=2)
            return server
        # The serve_mixed shape: three tenant pools, q6/q4, queue-depth
        # admission, the advisor deciding under a standing backlog.
        config = RuntimeConfig(
            processors=4,
            pool_pages=96,
            page_rows=16,
            tenants=(
                TenantShare("acme", 40, tables=("lineitem",)),
                TenantShare("beta", 24, tables=("orders",)),
                TenantShare("carol", 8),
            ),
        )
        server = make_server(catalog, config=config, admission=QueueDepthBound(48))
        server.serve(
            WorkloadMix({"q6": 0.7, "q4": 0.3}),
            {"q6": q6, "q4": build("q4", catalog)},
            arrival_rate=1.0 / 150.0, horizon=12_000.0, drain=300_000.0,
            seed=7, tenant_weights={"acme": 0.6, "beta": 0.3, "carol": 0.1},
        )
        return server

    @pytest.mark.parametrize("cell", sorted(SERVED_ERROR_PINS))
    def test_mean_abs_error_is_pinned(self, catalog, q6, cell):
        log = self.serve_cell(catalog, q6, cell).session.audit_log()
        assert all(r.joined for r in log if r.source != "server")
        error = log.mean_abs_error()
        assert 0 < error <= SERVED_ERROR_PINS[cell] * 1.05
