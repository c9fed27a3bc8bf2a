"""Direct unit tests for coordinator slot routing.

The property suite (``test_property_coordinator.py``) checks the
coordinator never loses a query; these tests pin down the *mechanism*:
what prospective size and processor count each policy call sees, when
a batch attaches to a busy signature versus launching, and when the
pending batch flushes.
"""

import pytest

from repro.engine import Engine
from repro.errors import PolicyError
from repro.obs.audit import AuditLog
from repro.policies import AlwaysShare, SharingCoordinator
from repro.policies.base import SharingPolicy
from repro.sim import Simulator
from repro.sim.events import Sleep
from repro.tpch.generator import generate

CATALOG = generate(scale_factor=0.0003, seed=77)


class RecordingPolicy(SharingPolicy):
    """Shares on demand, recording every consultation's arguments."""

    name = "recording"

    def __init__(self, share=True):
        self.share = share
        self.calls = []
        self.observed = []

    def should_share(self, query_name, prospective_size, processors):
        self.calls.append((query_name, prospective_size, processors))
        return self.share and prospective_size >= 2

    def observe_group(self, query_name, group_size, tasks):
        self.observed.append((query_name, group_size))


def _coordinator(policy, processors=8, audit=None, max_group_size=None):
    sim = Simulator(processors=processors)
    engine = Engine(CATALOG, sim)
    coordinator = SharingCoordinator(
        engine, policy, max_group_size=max_group_size, audit=audit
    )
    return sim, coordinator


def _query(name="q6"):
    from repro.tpch.queries import build

    return build(name, CATALOG)


class TestSlotRouting:
    def test_same_instant_arrivals_offered_as_one_group(self):
        policy = RecordingPolicy()
        sim, coordinator = _coordinator(policy)
        q = _query()
        for i in range(4):
            coordinator.submit(q, f"q6#{i}")
        sim.run()
        # One routing pass saw all four arrivals as one prospective group.
        assert policy.calls[0] == ("q6", 4, 8)
        assert coordinator.launched_group_sizes == [4]
        assert coordinator.shared_submissions == 4

    def test_declined_batch_launches_singletons(self):
        policy = RecordingPolicy(share=False)
        sim, coordinator = _coordinator(policy)
        q = _query()
        for i in range(3):
            coordinator.submit(q, f"q6#{i}")
        sim.run()
        assert coordinator.launched_group_sizes == [1, 1, 1]
        assert coordinator.solo_submissions == 3
        assert coordinator.shared_submissions == 0

    def test_busy_signature_attaches_to_pending(self):
        audit = AuditLog()
        sim, coordinator = _coordinator(AlwaysShare(), audit=audit)
        q = _query()
        coordinator.submit(q, "a0")
        coordinator.submit(q, "a1")
        pending_seen = []

        def late():
            yield Sleep(1.0)  # the first group is now active
            coordinator.submit(q, "b0")
            yield Sleep(1.0)  # routing has run; the group is still going
            pending_seen.append(coordinator.pending_count())

        sim.spawn(late(), name="late")
        sim.run()
        assert pending_seen == [1]
        outcomes = [r.outcome for r in audit.records]
        assert outcomes[0] == "share"
        assert outcomes[1] == "attach"
        # The pending batch flushed once the active group drained.
        assert coordinator.pending_count() == 0
        assert coordinator.launched_group_sizes == [2, 1]

    def test_effective_processors_exclude_other_signatures(self):
        policy = RecordingPolicy()
        sim, coordinator = _coordinator(policy, processors=8)
        q6, q4 = _query("q6"), _query("q4")
        coordinator.submit(q6, "q6#0")
        coordinator.submit(q6, "q6#1")
        coordinator.submit(q6, "q6#2")

        def other():
            yield Sleep(1.0)  # q6's 3-member group is active
            coordinator.submit(q4, "q4#0")
            coordinator.submit(q4, "q4#1")

        sim.spawn(other(), name="other")
        sim.run()
        # q4's consultation sees 8 - 3 = 5 free processors; q6's own
        # members do not count against q6.
        q4_calls = [c for c in policy.calls if c[0] == "q4"]
        assert q4_calls[0] == ("q4", 2, 5)

    def test_prospective_size_counts_active_and_pending(self):
        policy = RecordingPolicy()
        sim, coordinator = _coordinator(policy)
        q = _query()
        coordinator.submit(q, "a0")
        coordinator.submit(q, "a1")

        def late():
            yield Sleep(1.0)
            coordinator.submit(q, "b0")  # attaches: pending = 1
            yield Sleep(1.0)
            coordinator.submit(q, "c0")  # sees 2 active + 1 pending + 1

        sim.spawn(late(), name="late")
        sim.run()
        assert policy.calls[1] == ("q6", 3, 8)
        assert policy.calls[2] == ("q6", 4, 8)

    def test_flush_respects_group_size_cap(self):
        sim, coordinator = _coordinator(AlwaysShare(), max_group_size=2)
        q = _query()
        for i in range(5):
            coordinator.submit(q, f"q6#{i}")
        sim.run()
        assert all(s <= 2 for s in coordinator.launched_group_sizes)
        assert sum(coordinator.launched_group_sizes) == 5

    def test_completed_group_reported_to_policy(self):
        policy = RecordingPolicy()
        sim, coordinator = _coordinator(policy)
        q = _query()
        coordinator.submit(q, "a0")
        coordinator.submit(q, "a1")
        sim.run()
        assert policy.observed == [("q6", 2)]

    def test_drain_routes_without_simulator(self):
        policy = RecordingPolicy(share=False)
        sim, coordinator = _coordinator(policy)
        coordinator.submit(_query(), "a0")
        coordinator.drain()
        # Routed immediately: the policy was consulted before sim.run().
        assert policy.calls == [("q6", 1, 8)]

    def test_invalid_cap_rejected(self):
        with pytest.raises(PolicyError):
            _coordinator(AlwaysShare(), max_group_size=0)


class TestDecisionJoin:
    """The coordinator scores each record when the last submission it
    covers finishes — not per group, not per batch."""

    def test_record_split_across_launches_joins_at_its_last_member(self):
        audit = AuditLog()
        sim, coordinator = _coordinator(AlwaysShare(), audit=audit, max_group_size=2)
        q = _query()
        seen = []
        tickets = [
            coordinator.submit(q, f"q6#{i}", on_complete=lambda h: seen.append(audit[0].joined))
            for i in range(4)
        ]
        sim.run()
        # One decision, two launched groups; only the fourth finish joins.
        assert len(audit) == 1 and coordinator.launched_group_sizes == [2, 2]
        assert seen == [False, False, False, True]
        handles = [t.handle for t in tickets]
        (record,) = audit.records
        assert record.measured_latency == (
            max(h.finished_at for h in handles) - min(h.submitted_at for h in handles)
        )
        assert record.measured_physical_reads is None  # no pool to count
        assert not coordinator._open

    def test_attach_record_is_measured_from_its_own_launch(self):
        audit = AuditLog()
        sim, coordinator = _coordinator(AlwaysShare(), audit=audit)
        q = _query()
        head = [coordinator.submit(q, f"a{i}") for i in range(2)]
        late = []

        def attach():
            yield Sleep(1.0)  # the first group is now active
            late.append(coordinator.submit(q, "b0"))

        sim.spawn(attach(), name="late")
        sim.run()
        share, attached = audit.records
        assert (share.outcome, attached.outcome) == ("share", "attach")
        (ticket,) = late
        # The batch waited in the pending list until the head group
        # drained; its wall starts at that launch, not at the decision.
        assert ticket.handle.submitted_at >= max(h.handle.finished_at for h in head)
        assert attached.decided_at < ticket.handle.submitted_at
        assert attached.measured_latency == (
            ticket.handle.finished_at - ticket.handle.submitted_at
        )

    def test_record_with_a_running_member_joins_once_it_finishes(self):
        audit = AuditLog()
        sim, coordinator = _coordinator(AlwaysShare(), audit=audit)
        q = _query()
        tickets = [coordinator.submit(q, f"q6#{i}") for i in range(2)]
        sim.run(until=1.0)
        (record,) = audit.records
        assert not any(t.handle.done for t in tickets)
        assert not record.joined and list(coordinator._open) == [record.seq]
        sim.run()
        assert record.joined and not coordinator._open
        assert record.measured_latency == max(t.handle.finished_at for t in tickets)


class ScriptedPolicy(SharingPolicy):
    """Plays back a fixed verdict sequence, one per consultation."""

    name = "scripted"

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    def should_share(self, query_name, prospective_size, processors):
        return self.verdicts.pop(0) if self.verdicts else False


class TestOverloadCorners:
    """The server-tier overload paths: what happens when the pending
    batch is full-sized, and who wakes it up."""

    def test_flush_splits_a_full_pending_batch(self):
        """A pending batch larger than ``max_group_size`` splits into
        several concurrent groups at flush time, losing no query."""
        sim, coordinator = _coordinator(AlwaysShare(), max_group_size=3)
        q = _query()
        done = []
        coordinator.submit(q, "head", on_complete=lambda h: done.append(h))

        def overload():
            yield Sleep(1.0)  # the head query is now in flight
            for i in range(7):
                coordinator.submit(
                    q, f"late#{i}", on_complete=lambda h: done.append(h)
                )

        sim.spawn(overload(), name="overload")
        sim.run()
        # Head ran solo (size 1 is never shared); the seven waiters
        # flushed as 3 + 3 + 1 when it drained.
        assert coordinator.launched_group_sizes == [1, 3, 3, 1]
        assert len(done) == 8
        assert coordinator.pending_count() == 0

    def test_declined_solo_completion_flushes_the_waiting_batch(self):
        """A policy-declined query runs solo but keeps its signature
        busy; a batch forms behind it and must launch the instant the
        solo completes — not wait for any shared group."""
        audit = AuditLog()
        policy = ScriptedPolicy([False, True])
        sim, coordinator = _coordinator(policy, audit=audit)
        q = _query()
        finish_times = {}

        def record(handle):
            finish_times[handle.label] = sim.now

        coordinator.submit(q, "declined", on_complete=record)

        def latecomers():
            yield Sleep(1.0)  # the declined query is running solo
            for i in range(3):
                coordinator.submit(q, f"wait#{i}", on_complete=record)

        sim.spawn(latecomers(), name="latecomers")
        sim.run()
        outcomes = [r.outcome for r in audit.records]
        assert outcomes == ["solo", "attach"]
        # The batch merged into one group launched after the solo.
        assert coordinator.launched_group_sizes == [1, 3]
        assert len(finish_times) == 4
        waiters = {t for label, t in finish_times.items()
                   if label.startswith("wait")}
        assert min(waiters) > finish_times["declined"]
