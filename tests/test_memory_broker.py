"""MemoryBroker: grants, high-water marks, overcommit accounting."""

import pytest

from repro.engine import MemoryBroker
from repro.errors import EngineError


class TestGrants:
    def test_grant_caps_at_available(self):
        broker = MemoryBroker(10)
        first = broker.grant("a", 6)
        second = broker.grant("b", 6)
        assert first.pages == 6
        assert second.pages == 4
        assert broker.available() == 0

    def test_default_request_takes_everything(self):
        broker = MemoryBroker(8)
        assert broker.grant("a").pages == 8

    def test_starved_grant_still_gets_one_page(self):
        broker = MemoryBroker(2)
        broker.grant("a")
        starved = broker.grant("b", 5)
        assert starved.pages == 1  # guaranteed minimum, no deadlock

    def test_close_releases_budget(self):
        broker = MemoryBroker(6)
        grant = broker.grant("a", 6)
        grant.close()
        assert broker.available() == 6
        assert broker.grant("b", 4).pages == 4

    def test_close_is_idempotent(self):
        broker = MemoryBroker(4)
        grant = broker.grant("a", 2)
        grant.close()
        grant.close()  # must not release the budget twice
        assert broker.reserved == 0
        assert broker.available() == 4

    def test_work_mem_must_be_positive(self):
        with pytest.raises(EngineError):
            MemoryBroker(0)

    def test_bad_request_rejected(self):
        broker = MemoryBroker(4)
        with pytest.raises(EngineError):
            broker.grant("a", 0)


class TestUsageTracking:
    def test_high_water_marks(self):
        broker = MemoryBroker(10)
        a = broker.grant("a", 5)
        b = broker.grant("b", 5)
        a.resize_used(3)
        b.resize_used(4)
        a.resize_used(1)
        assert broker.in_use == 5
        assert broker.high_water == 7
        assert a.high_water == 3
        assert b.high_water == 4

    def test_overcommit_counted_once_per_grant(self):
        broker = MemoryBroker(4)
        grant = broker.grant("a", 2)
        grant.resize_used(3)
        grant.resize_used(5)
        assert broker.overcommits == 1

    def test_resize_after_close_raises(self):
        broker = MemoryBroker(4)
        grant = broker.grant("a", 2)
        grant.close()
        with pytest.raises(EngineError, match="closed"):
            grant.resize_used(1)

    def test_negative_usage_rejected(self):
        broker = MemoryBroker(4)
        grant = broker.grant("a", 2)
        with pytest.raises(EngineError):
            grant.resize_used(-1)

    def test_snapshot_reflects_grants(self):
        broker = MemoryBroker(6)
        grant = broker.grant("join@1", 4)
        grant.resize_used(2)
        assert broker.in_use == 2
        (snap,) = broker.grants()
        assert (snap.owner, snap.pages, snap.used, snap.high_water) == ("join@1", 4, 2, 2)
        assert not snap.closed
