"""Load/soak tests: thousands of arrivals through one long-lived server.

The three invariants a service tier must hold at scale, not just in
unit-sized runs:

* **Conservation** — every one of the thousands of arrivals lands in
  exactly one terminal bucket (``submitted == completed + shed +
  backlog``), per tenant and in total.
* **Isolation** — no tenant's resident page count ever exceeds its
  share, sampled *throughout* the run, not just at the end.
* **Fidelity** — sharing and queueing change *when* a query finishes,
  never *what* it returns: every completed result is bit-identical to
  a solo run, and the same seed reproduces the same report exactly.
"""

import pytest

from repro.db import Database, RuntimeConfig
from repro.db.builder import Query
from repro.policies import AlwaysShare
from repro.server import QueueDepthBound, Server
from repro.sim.events import Sleep
from repro.storage import TenantShare
from repro.tpch.generator import generate
from repro.tpch.queries import build
from repro.workload import WorkloadMix

SCALE = 0.0003
SEED = 77
RATE = 1.0 / 800.0
HORIZON = 2_000_000.0
DRAIN = 300_000.0
WEIGHTS = {"acme": 0.6, "beta": 0.3, "carol": 0.1}


@pytest.fixture(scope="module")
def catalog():
    return generate(scale_factor=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def queries(catalog):
    return {name: build(name, catalog) for name in ("q6", "q4")}


def soak_config():
    return RuntimeConfig(
        processors=4,
        pool_pages=96,
        page_rows=16,
        tenants=(
            TenantShare("acme", 40, tables=("lineitem",)),
            TenantShare("beta", 24, tables=("orders",)),
            TenantShare("carol", 8),
        ),
    )


def soak_server(catalog, **kwargs):
    return Server.open(
        catalog,
        soak_config(),
        policy=AlwaysShare(),
        admission=QueueDepthBound(48),
        **kwargs,
    )


def run_soak(server, queries, *, seed=11):
    mix = WorkloadMix({"q6": 0.7, "q4": 0.3})
    return server.serve(
        mix,
        queries,
        arrival_rate=RATE,
        horizon=HORIZON,
        drain=DRAIN,
        seed=seed,
        tenant_weights=WEIGHTS,
    )


def monitored_soak(catalog, queries):
    """One seed-11 soak run on a fresh server (rows kept for the
    fidelity checks), with tenant residency sampled every 5k time
    units while it runs."""
    server = soak_server(catalog, keep_rows=True)
    pool = server.session.pool
    peaks = {name: 0 for name in WEIGHTS}
    sim = server.session.sim
    end = sim.now + HORIZON + DRAIN  # where the serve stops the simulator

    def monitor():
        while True:
            residency = pool.tenant_residency()
            for name in peaks:
                peaks[name] = max(peaks[name], residency[name])
            if sim.now + 5_000.0 > end:
                return  # the last sample the serve reaches: leave no task behind
            yield Sleep(5_000.0)

    sim.spawn(monitor(), name="soak/monitor")
    report = run_soak(server, queries)
    return server, report, peaks


@pytest.fixture(scope="module")
def soak(catalog, queries):
    """The soak run every test in this module shares."""
    return monitored_soak(catalog, queries)


class TestSoak:
    def test_the_run_is_actually_a_soak(self, soak):
        _, report, _ = soak
        assert report.submitted > 2_000
        assert report.completed > 1_000
        assert report.shed > 0  # admission control was exercised
        assert len(report.records) == report.submitted

    def test_conservation_total_and_per_tenant(self, soak):
        _, report, _ = soak
        assert report.submitted == (
            report.completed + report.shed + report.backlog
        )
        assert set(report.tenants) == set(WEIGHTS)
        for tenant in report.tenants.values():
            assert tenant.submitted == (
                tenant.completed + tenant.shed + tenant.backlog
            )
        assert sum(t.submitted for t in report.tenants.values()) == report.submitted
        assert sum(t.completed for t in report.tenants.values()) == report.completed
        assert sum(t.shed for t in report.tenants.values()) == report.shed

    def test_lifetime_counters_match_the_report(self, soak):
        server, report, _ = soak
        assert server.total_submitted == report.submitted
        assert server.total_shed == report.shed
        assert server.total_completed == report.completed
        snapshot = server.session.metrics().snapshot()
        assert snapshot["server.submitted"] == float(report.submitted)
        assert snapshot["server.completed"] == float(report.completed)

    def test_tenant_pages_never_exceed_share(self, soak):
        """Sampled every 5k units across the whole run — the quota is
        an *always* invariant, not an end-state accident."""
        server, _, peaks = soak
        pool = server.session.pool
        for name, peak in peaks.items():
            assert peak <= pool.quota_of(name), name
        assert max(peaks.values()) > 0  # the monitor saw real traffic
        pool.check_isolation()

    def test_every_completed_result_is_bit_identical_to_solo(
        self, soak, catalog, queries
    ):
        _, report, _ = soak
        solo = Database(catalog, RuntimeConfig(processors=4)).session()
        reference = {
            name: tuple(
                solo.run(
                    Query(plan=q.plan, pivot_op_id=q.pivot, name=name),
                    label=f"ref/{name}",
                    share=False,
                ).rows
            )
            for name, q in queries.items()
        }
        checked = 0
        for record in report.records:
            if record.outcome != "completed":
                continue
            assert record.rows == reference[record.name], record.label
            checked += 1
        assert checked == report.completed

    def test_latency_samples_match_completions(self, soak):
        _, report, _ = soak
        assert report.latency.count == report.completed
        assert report.latency.p50 <= report.latency.p99 <= report.latency.max
        for tenant in report.tenants.values():
            assert tenant.latency.count == tenant.completed


class TestSoakDeterminism:
    @pytest.mark.in_flight  # the horizon cuts the serve with a backlog
    def test_same_seed_reproduces_the_report_exactly(self, soak, catalog, queries):
        """A second, independently executed run with the shared run's
        settings reproduces it to the last record."""

        def fingerprint(server, report):
            return (
                report.submitted,
                report.completed,
                report.shed,
                report.goodput,
                report.latency.to_dict(),
                tuple(
                    (r.label, r.outcome, r.submitted_at, r.finished_at)
                    for r in report.records
                ),
                server.session.audit_log().to_json(),
            )

        server, report, _ = soak
        again, again_report, _ = monitored_soak(catalog, queries)
        assert fingerprint(again, again_report) == fingerprint(server, report)

    def test_different_seed_changes_the_arrivals(self, soak, catalog, queries):
        _, a, _ = soak
        b = run_soak(soak_server(catalog, keep_rows=False), queries, seed=12)
        assert (a.submitted, a.latency.to_dict()) != (
            b.submitted, b.latency.to_dict()
        )
