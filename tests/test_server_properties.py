"""Property-based tests for the service tier.

Whatever the trace, the tenant mix, and the knob settings: the server
must never deadlock, shed monotonically in load, and reproduce the
same run byte-for-byte from the same seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies import AlwaysShare, NeverShare
from repro.server import (
    AdmissionView,
    AdmitAll,
    Arrival,
    LatencyBound,
    QueueDepthBound,
    Server,
)
from repro.db import Database, RuntimeConfig
from repro.storage import TenantShare
from repro.tpch.generator import generate
from repro.tpch.queries import build
from repro.workload import WorkloadMix

_CATALOG = generate(scale_factor=0.0003, seed=77)
_QUERIES = {name: build(name, _CATALOG) for name in ("q6", "q4")}

_TENANTS = ("acme", "beta", "carol")
_TENANT_CONFIG = RuntimeConfig(
    processors=4,
    pool_pages=64,
    page_rows=16,
    tenants=(
        TenantShare("acme", 24, tables=("lineitem",)),
        TenantShare("beta", 16, tables=("orders",)),
        TenantShare("carol", 4),
    ),
)

arrival_traces = st.lists(
    st.tuples(
        st.sampled_from(sorted(_QUERIES)),
        st.floats(min_value=0.0, max_value=50_000.0),
        st.sampled_from(_TENANTS),
    ),
    min_size=1,
    max_size=14,
)


@given(
    arrival_traces,
    st.sampled_from(["always", "never"]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_no_admitted_query_is_ever_stranded(
    trace, policy_name, max_inflight, attach_inflight
):
    """Random traces x tenant mixes x dispatch knobs: given drain, every
    admitted query completes — no deadlock, no lost completion, and the
    tenant quotas hold at the end."""
    policy = AlwaysShare() if policy_name == "always" else NeverShare()
    server = Server(
        Database(_CATALOG, _TENANT_CONFIG).session(),
        policy=policy,
        admission=AdmitAll(),
        max_inflight=max_inflight,
        attach_inflight=attach_inflight,
        keep_rows=False,
    )
    arrivals = [
        Arrival(at=at, query=_QUERIES[name], tenant=tenant)
        for name, at, tenant in trace
    ]
    report = server.serve_trace(arrivals, drain=5_000_000.0)
    assert report.submitted == len(arrivals)
    assert report.shed == 0
    assert report.completed == report.submitted
    assert report.backlog == 0
    server.session.pool.check_isolation()


views = st.builds(
    AdmissionView,
    queue_depth=st.integers(min_value=0, max_value=500),
    in_flight=st.integers(min_value=0, max_value=64),
    projected_latency=st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False
    ),
    tenant=st.sampled_from(_TENANTS),
)


@given(views, st.integers(min_value=1, max_value=100),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=200, deadline=None)
def test_queue_depth_shedding_is_monotone(view, bound, deeper_by):
    """If a view is shed, every strictly deeper queue is shed too."""
    policy = QueueDepthBound(bound)
    deeper = AdmissionView(
        queue_depth=view.queue_depth + deeper_by,
        in_flight=view.in_flight,
        projected_latency=view.projected_latency,
        tenant=view.tenant,
    )
    assert policy.admit(deeper) <= policy.admit(view)


@given(views, st.floats(min_value=1e-3, max_value=1e9),
       st.floats(min_value=1e-3, max_value=1e9))
@settings(max_examples=200, deadline=None)
def test_latency_shedding_is_monotone(view, bound, extra):
    policy = LatencyBound(bound)
    slower = AdmissionView(
        queue_depth=view.queue_depth,
        in_flight=view.in_flight,
        projected_latency=view.projected_latency + extra,
        tenant=view.tenant,
    )
    assert policy.admit(slower) <= policy.admit(view)


@pytest.mark.in_flight  # the horizon cuts the serve with a backlog
@given(st.integers(min_value=0, max_value=2 ** 16),
       st.sampled_from([1 / 600.0, 1 / 1_500.0, 1 / 4_000.0]))
@settings(max_examples=8, deadline=None)
def test_same_seed_is_byte_identical(seed, rate):
    """Audit log and metrics registry serialize identically across two
    fresh servers fed the same seeded stream."""

    def snapshots():
        server = Server.open(
            _CATALOG,
            RuntimeConfig(processors=2),
            policy=AlwaysShare(),
            admission=QueueDepthBound(8),
            keep_rows=False,
        )
        server.serve(
            WorkloadMix({"q6": 0.7, "q4": 0.3}),
            _QUERIES,
            arrival_rate=rate,
            horizon=120_000.0,
            drain=60_000.0,
            seed=seed,
            tenant_weights={"acme": 0.5, "beta": 0.5},
        )
        return (
            server.session.audit_log().to_json(),
            server.session.metrics().to_json(),
        )

    assert snapshots() == snapshots()
