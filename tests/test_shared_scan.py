"""Cooperative scan sharing: unit and property tests.

The invariants the elevator subsystem must never violate, whatever
the arrival order, interleaving, or prefetch depth:

* every attached consumer sees **each page exactly once** (one full
  revolution from its own start offset);
* through the engine, every consumer's row *set* equals an
  independent scan's, under randomized arrival staggers;
* prefetch accounting conserves I/O — stall + overlapped + still
  in flight == physical reads x ``io_page``;
* the scan-aware eviction policy switches to MRU victims exactly for
  tables larger than the pool.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CostModel, Engine, scan
from repro.errors import StorageError
from repro.sim.events import Sleep
from repro.sim.simulator import Simulator
from repro.storage import (
    BufferPool,
    Catalog,
    DataType,
    ScanAwarePolicy,
    ScanShareManager,
    Schema,
    make_policy,
)

IO_PAGE = 100.0


def make_manager(capacity=64, prefetch=0, policy="lru"):
    return ScanShareManager(BufferPool(capacity, policy),
                            prefetch_depth=prefetch)


class TestTicketLifecycle:
    def test_first_consumer_starts_at_page_zero(self):
        manager = make_manager()
        ticket = manager.attach("t", 10)
        assert ticket.start_page == 0
        assert ticket.page_index == 0
        assert not ticket.exhausted

    def test_late_arrival_attaches_at_head(self):
        manager = make_manager()
        first = manager.attach("t", 10)
        for _ in range(4):
            manager.acquire(first, IO_PAGE)
            first.advance()
        second = manager.attach("t", 10)
        assert second.start_page == 4

    def test_wrap_around_covers_every_page_once(self):
        manager = make_manager()
        first = manager.attach("t", 8)
        for _ in range(5):
            manager.acquire(first, IO_PAGE)
            first.advance()
        second = manager.attach("t", 8)
        seen = []
        while not second.exhausted:
            seen.append(second.page_index)
            manager.acquire(second, IO_PAGE)
            second.advance()
        assert seen == [5, 6, 7, 0, 1, 2, 3, 4]
        assert sorted(seen) == list(range(8))

    def test_advance_past_revolution_rejected(self):
        manager = make_manager()
        ticket = manager.attach("t", 2)
        for _ in range(2):
            manager.acquire(ticket, IO_PAGE)
            ticket.advance()
        assert ticket.exhausted
        with pytest.raises(StorageError):
            ticket.advance()
        with pytest.raises(StorageError):
            manager.acquire(ticket, IO_PAGE)

    def test_detach_is_idempotent_and_frees_depth(self):
        manager = make_manager()
        a = manager.attach("t", 4)
        b = manager.attach("t", 4)
        manager.detach(a)
        manager.detach(a)
        stats = manager.snapshot()[0]
        assert stats.attaches == 2
        assert stats.max_attach_depth == 2
        manager.detach(b)

    def test_table_size_change_rejected_mid_scan(self):
        manager = make_manager()
        manager.attach("t", 4)
        with pytest.raises(StorageError, match="changed size"):
            manager.attach("t", 5)

    def test_idle_cursor_resize_abandons_inflight_reads(self):
        """Resizing an idle cursor keeps the conservation identity:
        still-in-flight prefetch cost moves to io_abandoned_cost."""
        manager = make_manager(capacity=64, prefetch=4)
        ticket = manager.attach("t", 8)
        for _ in range(3):
            manager.acquire(ticket, IO_PAGE)
            ticket.advance()
        manager.detach(ticket)
        pending_before = manager._cursors["t"].pending_cost()
        assert pending_before > 0
        manager.attach("t", 12)
        cursor = manager._cursors["t"]
        stats = manager.snapshot()[0]
        assert stats.io_abandoned_cost == pytest.approx(pending_before)
        total = (stats.io_stall_cost + stats.io_overlapped_cost
                 + stats.io_abandoned_cost + cursor.pending_cost())
        assert total == pytest.approx(stats.physical_reads * IO_PAGE)

    def test_idle_cursor_resizes_for_grown_table(self):
        """A table that grows between queries gets a fresh cursor
        geometry instead of a permanent error."""
        manager = make_manager()
        ticket = manager.attach("t", 4)
        while not ticket.exhausted:
            manager.acquire(ticket, IO_PAGE)
            ticket.advance()
        manager.detach(ticket)
        grown = manager.attach("t", 6)
        assert grown.n_pages == 6
        assert grown.start_page == 0
        seen = []
        while not grown.exhausted:
            seen.append(grown.page_index)
            manager.acquire(grown, IO_PAGE)
            grown.advance()
        assert sorted(seen) == list(range(6))

    def test_bad_arguments_rejected(self):
        manager = make_manager()
        with pytest.raises(StorageError):
            manager.attach("t", 0)
        with pytest.raises(StorageError):
            ScanShareManager(BufferPool(4), prefetch_depth=-1)
        ticket = manager.attach("t", 2)
        with pytest.raises(StorageError):
            manager.acquire(ticket, IO_PAGE, cpu_credit=-1.0)


class TestElevatorProperties:
    @given(
        n_pages=st.integers(min_value=1, max_value=24),
        arrivals=st.lists(
            st.integers(min_value=0, max_value=23), min_size=1, max_size=5
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_consumer_sees_each_page_exactly_once(
        self, n_pages, arrivals, seed
    ):
        """Random arrival offsets and interleavings: one revolution
        each, every page exactly once, sharing never exceeds one
        pass beyond what staggered arrivals force."""
        import random

        rng = random.Random(seed)
        manager = make_manager(capacity=2 * n_pages, prefetch=2)
        active = {}
        pending_arrivals = sorted(arrivals)
        seen: dict[int, list] = {}
        ticket_id = 0
        steps = 0
        while pending_arrivals or active:
            # Admit every arrival whose offset has passed.
            while pending_arrivals and pending_arrivals[0] <= steps:
                pending_arrivals.pop(0)
                ticket = manager.attach("t", n_pages)
                active[ticket_id] = ticket
                seen[ticket_id] = []
                ticket_id += 1
            if active:
                chosen = rng.choice(sorted(active))
                ticket = active[chosen]
                seen[chosen].append(ticket.page_index)
                manager.acquire(ticket, IO_PAGE, cpu_credit=10.0)
                ticket.advance()
                if ticket.exhausted:
                    manager.detach(ticket)
                    del active[chosen]
            steps += 1

        for pages in seen.values():
            assert sorted(pages) == list(range(n_pages))
        stats = manager.snapshot()[0]
        assert stats.pages_served == len(seen) * n_pages

    @given(
        consumers=st.integers(min_value=1, max_value=5),
        stagger=st.floats(min_value=0.0, max_value=2000.0),
        page_rows=st.sampled_from([8, 16, 32]),
    )
    @settings(max_examples=20, deadline=None)
    def test_engine_rows_match_independent_scan(
        self, consumers, stagger, page_rows
    ):
        """Through the engine under random staggers, every consumer's
        row set is identical to an independent scan's."""
        catalog = Catalog()
        schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
        table = catalog.create("t", schema)
        table.insert_many([(i, float(i % 13)) for i in range(300)])
        reference = sorted(table.rows())

        pages = table.page_count(page_rows)
        manager = ScanShareManager(BufferPool(pages * 2), prefetch_depth=2)
        sim = Simulator(processors=4)
        engine = Engine(catalog, sim, costs=CostModel(io_page=IO_PAGE),
                        page_rows=page_rows, scan_manager=manager)
        handles = []

        def submitter(delay, label):
            yield Sleep(delay)
            handles.append(engine.execute(
                scan(catalog, "t", columns=["k", "v"], op_id="s"), label
            ))

        for i in range(consumers):
            sim.spawn(submitter(i * stagger, f"c{i}"), name=f"submit{i}")
        sim.run()

        assert len(handles) == consumers
        for handle in handles:
            assert sorted(handle.rows) == reference

    def test_lockstep_consumers_share_one_physical_pass(self):
        catalog = Catalog()
        schema = Schema([("k", DataType.INT)])
        table = catalog.create("t", schema)
        table.insert_many([(i,) for i in range(256)])
        pages = table.page_count(16)

        manager = ScanShareManager(BufferPool(pages * 2), prefetch_depth=2)
        sim = Simulator(processors=8)
        engine = Engine(catalog, sim, costs=CostModel(io_page=IO_PAGE),
                        page_rows=16, scan_manager=manager)
        for i in range(4):
            engine.execute(scan(catalog, "t", columns=["k"], op_id="s"),
                           f"q{i}")
        sim.run()
        stats = manager.snapshot()[0]
        assert stats.physical_reads == pages
        assert stats.pages_served == 4 * pages
        assert stats.max_attach_depth == 4
        assert stats.pages_per_read == pytest.approx(4.0)


class TestPrefetchAccounting:
    def walk(self, manager, ticket, cpu=20.0):
        """Drive one full revolution, returning per-page stalls."""
        stalls = []
        credit = 0.0
        while not ticket.exhausted:
            stalls.append(manager.acquire(ticket, IO_PAGE, cpu_credit=credit))
            credit = cpu
            ticket.advance()
        return stalls

    def test_no_prefetch_pays_synchronous_misses(self):
        manager = make_manager(prefetch=0)
        ticket = manager.attach("t", 6)
        stalls = self.walk(manager, ticket)
        assert stalls == [IO_PAGE] * 6
        stats = manager.snapshot()[0]
        assert stats.physical_reads == 6
        assert stats.io_overlapped_cost == 0

    def test_prefetch_overlaps_cpu_with_io(self):
        """With read-ahead, each page's stall shrinks by the CPU
        credit of the previous page: io - cpu instead of io."""
        cpu = 20.0
        manager = make_manager(prefetch=2)
        ticket = manager.attach("t", 6)
        stalls = self.walk(manager, ticket, cpu=cpu)
        # Page 0 is a cold synchronous miss; every later page was
        # prefetched and partially overlapped.
        assert stalls[0] == IO_PAGE
        assert stalls[1:] == [IO_PAGE - cpu] * 5
        stats = manager.snapshot()[0]
        assert stats.io_overlapped_cost == pytest.approx(5 * cpu)

    def test_cpu_larger_than_io_hides_reads_completely(self):
        manager = make_manager(prefetch=2)
        ticket = manager.attach("t", 6)
        stalls = self.walk(manager, ticket, cpu=3 * IO_PAGE)
        assert stalls[0] == IO_PAGE
        assert stalls[1:] == [0.0] * 5

    def test_io_conservation(self):
        """stall + overlapped + still-in-flight == reads * io_page."""
        for prefetch in (0, 1, 3, 8):
            for cpu in (0.0, 15.0, 150.0):
                manager = make_manager(prefetch=prefetch)
                ticket = manager.attach("t", 12)
                self.walk(manager, ticket, cpu=cpu)
                stats = manager.snapshot()[0]
                cursor = manager._cursors["t"]
                in_flight = cursor.pending_cost()
                total = (stats.io_stall_cost + stats.io_overlapped_cost
                         + in_flight)
                assert total == pytest.approx(
                    stats.physical_reads * IO_PAGE
                ), (prefetch, cpu)

    def test_followers_draft_without_new_reads(self):
        manager = make_manager(prefetch=1)
        leader = manager.attach("t", 4)
        manager.acquire(leader, IO_PAGE)
        leader.advance()
        follower = manager.attach("t", 4)
        # The follower reads the page the leader just touched region:
        # wrap to leader's trail — all resident, no stall, no reads.
        reads_before = manager.snapshot()[0].physical_reads
        stall = manager.acquire(follower, IO_PAGE)
        follower.advance()
        assert manager.snapshot()[0].physical_reads >= reads_before
        assert stall in (0.0, IO_PAGE)  # head page may still be inflight

    def test_evicted_prefetch_counts_as_wasted(self):
        # Pool of 2 frames, prefetch 2: read-ahead frames get evicted
        # by the consumer's own touches before use.
        manager = make_manager(capacity=2, prefetch=2, policy="lru")
        ticket = manager.attach("t", 8)
        credit = 0.0
        while not ticket.exhausted:
            manager.acquire(ticket, IO_PAGE, cpu_credit=credit)
            credit = 10.0
            ticket.advance()
        stats = manager.snapshot()[0]
        assert stats.prefetch_wasted > 0
        # Every page is still served exactly once.
        assert stats.pages_served == 8

    def test_table_stats_report_is_a_copy(self):
        """A report taken mid-run equals the table's snapshot entry at
        that moment, and stays as it was while the cursor serves more
        pages."""
        manager = make_manager(prefetch=2)
        manager.attach("a", 4)
        ticket = manager.attach("t", 8)
        for _ in range(3):
            manager.acquire(ticket, IO_PAGE, cpu_credit=20.0)
            ticket.advance()
        report = manager.table_stats("t")
        assert report == {stats.table: stats for stats in manager.snapshot()}["t"]
        assert (report.n_pages, report.groups, report.pages_served) == (8, 1, 3)
        taken = dataclasses.astuple(report)
        self.walk(manager, ticket)
        assert dataclasses.astuple(report) == taken
        assert manager.table_stats("t").pages_served == 8


class TestScanAwarePolicy:
    def test_make_policy_resolves_scan(self):
        assert isinstance(make_policy("scan"), ScanAwarePolicy)

    def test_small_table_keeps_lru(self):
        pool = BufferPool(4, "scan")
        for i in range(3):
            pool.access(("tbl", "small", i))
        assert not pool.policy.is_looping("small")
        pool.access(("tbl", "small", 0))  # refresh page 0
        pool.access(("tbl", "other", 0))  # pool now full
        pool.access(("tbl", "other", 1))  # evicts LRU: small/1
        assert ("tbl", "small", 1) not in pool
        assert ("tbl", "small", 0) in pool

    def test_oversized_table_switches_to_mru(self):
        """Once the observed footprint exceeds capacity, the table's
        MRU page is the victim — the loop prefix survives."""
        pool = BufferPool(4, "scan")
        for i in range(8):
            pool.access(("tbl", "big", i))
        assert pool.policy.is_looping("big")
        # Pages 0..2 (the prefix) stay; later pages evict each other.
        assert ("tbl", "big", 0) in pool
        assert ("tbl", "big", 1) in pool
        assert ("tbl", "big", 2) in pool

    def test_scan_hint_classifies_before_first_access(self):
        pool = BufferPool(4, "scan")
        pool.scan_hint("big", 100)
        assert pool.policy.is_looping("big")

    def test_scan_hint_on_unaware_policy_is_noop(self):
        pool = BufferPool(4, "lru")
        pool.scan_hint("big", 100)  # must not raise

    def test_hinted_looping_table_does_not_evict_other_tables(self):
        """With the manager's attach-time hint in place, a looping
        scan eats its own frames and leaves other tables alone."""
        pool = BufferPool(4, "scan")
        pool.scan_hint("big", 10)
        pool.access(("tbl", "hot", 0))
        for i in range(10):
            pool.access(("tbl", "big", i))
        assert ("tbl", "hot", 0) in pool

    def test_second_pass_reuses_prefix(self):
        """The property the policy exists for: scanning an oversized
        table twice hits on the preserved prefix, where LRU gets
        nothing."""

        def second_pass_hits(policy):
            pool = BufferPool(8, policy)
            for _ in range(2):
                for i in range(16):
                    pool.access(("tbl", "big", i))
            return pool.stats.hits

        assert second_pass_hits("lru") == 0
        assert second_pass_hits("scan") > 0

    def test_manager_hints_oversized_tables(self):
        manager = make_manager(capacity=4, policy="scan")
        manager.attach("big", 10)
        assert manager.pool.policy.is_looping("big")
        manager2 = make_manager(capacity=16, policy="scan")
        manager2.attach("small", 10)
        assert not manager2.pool.policy.is_looping("small")


class TestOrderSensitiveConsumers:
    """Scans feeding limit/merge_join must not ride a rotated cursor."""

    def _catalog(self):
        catalog = Catalog()
        schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
        table = catalog.create("t", schema)
        table.insert_many([(i, float(i)) for i in range(200)])
        return catalog

    def _engine(self, catalog):
        manager = ScanShareManager(BufferPool(64), prefetch_depth=2)
        sim = Simulator(processors=4)
        engine = Engine(catalog, sim, costs=CostModel(io_page=IO_PAGE),
                        page_rows=16, scan_manager=manager)
        return engine, sim

    def test_limit_over_scan_keeps_table_order(self):
        """Even with the cursor moved mid-table by another scan, a
        limit(scan) query returns the table's first rows."""
        from repro.engine import limit, scan as scan_plan

        catalog = self._catalog()
        engine, sim = self._engine(catalog)
        # Move the table's elevator head first.
        engine.execute(
            scan_plan(catalog, "t", columns=["k", "v"], op_id="mover"),
            "mover",
        )
        sim.run()
        plan = limit(
            scan_plan(catalog, "t", columns=["k", "v"], op_id="s"),
            10, op_id="lim",
        )
        handle = engine.execute(plan, "limited")
        sim.run()
        assert handle.rows == [(i, float(i)) for i in range(10)]

    def test_merge_join_over_ordered_scans_still_works(self):
        from repro.engine import merge_join, scan as scan_plan

        catalog = self._catalog()
        engine, sim = self._engine(catalog)
        engine.execute(
            scan_plan(catalog, "t", columns=["k", "v"], op_id="mover"),
            "mover",
        )
        sim.run()
        other = catalog.create(
            "u", Schema([("j", DataType.INT), ("w", DataType.FLOAT)])
        )
        other.insert_many([(i, float(2 * i)) for i in range(200)])
        plan = merge_join(
            scan_plan(catalog, "t", columns=["k"], op_id="l"),
            scan_plan(catalog, "u", columns=["j", "w"], op_id="r"),
            left_key="k", right_key="j", op_id="mj",
        )
        handle = engine.execute(plan, "mj-query")
        sim.run()
        assert sorted(handle.rows) == [
            (i, i, float(2 * i)) for i in range(200)
        ]

    def test_aggregate_barrier_restores_rotation(self):
        """A limit above an aggregate still lets the scan rotate —
        the aggregate canonicalizes order."""
        from repro.engine import AggSpec, aggregate, limit, scan as scan_plan
        from repro.engine.expressions import col

        catalog = self._catalog()
        engine, sim = self._engine(catalog)
        engine.execute(
            scan_plan(catalog, "t", columns=["k", "v"], op_id="mover"),
            "mover",
        )
        sim.run()
        plan = limit(
            aggregate(
                scan_plan(catalog, "t", columns=["k", "v"], op_id="s"),
                group_by=("k",),
                aggs=[AggSpec("sum", "total", col("v"))],
                op_id="agg",
            ),
            5, op_id="lim",
        )
        handle = engine.execute(plan, "topk")
        sim.run()
        assert handle.rows == [(i, float(i)) for i in range(5)]
        # The scan below the barrier did attach to the shared cursor
        # (mover + barrier scan = 2 attaches on one cursor).
        stats = engine.scan_manager.snapshot()[0]
        assert stats.attaches == 2


class TestDriftGovernance:
    """Lag tracking, the throttle gate, and group-window splits."""

    def make_drifted(self, n_pages=24, bound=4, windows=False,
                     capacity=64, lag=6):
        """A fast leader `lag` pages ahead of an attached straggler."""
        manager = ScanShareManager(BufferPool(capacity),
                                   drift_bound=bound,
                                   group_windows=windows)
        leader = manager.attach("t", n_pages)
        straggler = manager.attach("t", n_pages)
        for _ in range(lag):
            manager.acquire(leader, IO_PAGE)
            leader.advance()
        return manager, leader, straggler

    def test_bad_drift_arguments_rejected(self):
        with pytest.raises(StorageError):
            ScanShareManager(BufferPool(4), drift_bound=0)
        with pytest.raises(StorageError):
            ScanShareManager(BufferPool(4), group_windows=True)
        with pytest.raises(StorageError):
            ScanShareManager(BufferPool(4), drift_bound=2,
                             group_windows="sometimes")

    def test_lag_is_tracked_per_consumer(self):
        manager, leader, straggler = self.make_drifted(lag=6)
        cursor = manager._cursors["t"]
        group = cursor.groups[0]
        assert group.lag_of(straggler, 24) == 6
        assert group.lag_of(leader, 24) == 0
        assert manager.table_stats("t").max_lag >= 4

    def test_throttle_gate_pauses_only_the_head(self):
        manager, leader, straggler = self.make_drifted(lag=6, bound=4)
        assert manager.throttle_wait(leader, IO_PAGE) == IO_PAGE
        # The straggler itself is never gated — it must catch up.
        assert manager.throttle_wait(straggler, IO_PAGE) == 0.0
        stats = manager.snapshot()[0]
        assert stats.throttle_stall_cost == IO_PAGE

    def test_gate_opens_once_the_convoy_closes_up(self):
        manager, leader, straggler = self.make_drifted(lag=6, bound=4)
        while manager.throttle_wait(leader, IO_PAGE) > 0:
            manager.acquire(straggler, IO_PAGE)
            straggler.advance()
        cursor = manager._cursors["t"]
        assert cursor.groups[0].lag_of(straggler, 24) < 4

    def test_gate_is_inert_without_io_cost_or_bound(self):
        manager, leader, _ = self.make_drifted(lag=6, bound=4)
        assert manager.throttle_wait(leader, 0.0) == 0.0
        unbounded = make_manager()
        ticket = unbounded.attach("u", 8)
        assert unbounded.throttle_wait(ticket, IO_PAGE) == 0.0

    def test_violation_splits_into_a_group_window(self):
        manager, leader, straggler = self.make_drifted(
            lag=6, bound=4, windows=True)
        # The split already opened at the violation; the freed lead's
        # gate is clear (its own group has no laggards).
        assert manager.throttle_wait(leader, IO_PAGE) == 0.0
        manager.acquire(leader, IO_PAGE)
        leader.advance()
        cursor = manager._cursors["t"]
        assert len(cursor.groups) == 2
        assert straggler.group is cursor.groups[1]
        assert cursor.groups[1].head == straggler.page_index
        stats = manager.snapshot()[0]
        assert stats.splits == 1 and stats.groups == 2

    def test_window_drain_merges_back(self):
        manager, leader, straggler = self.make_drifted(
            lag=6, bound=4, windows=True)
        manager.acquire(leader, IO_PAGE)
        leader.advance()
        while not straggler.exhausted:
            manager.acquire(straggler, IO_PAGE)
            straggler.advance()
        manager.detach(straggler)
        cursor = manager._cursors["t"]
        assert len(cursor.groups) == 1
        assert manager.snapshot()[0].merges >= 1

    def test_window_span_couples_the_lead(self):
        manager, leader, straggler = self.make_drifted(
            n_pages=24, lag=6, bound=4, windows=True, capacity=8)
        span = manager.window_span(24)
        assert span == max(4, 8 - 0 - 2)
        # Race the leader: the gate must stop it `span` ahead, so the
        # free-running lead cannot evict the window's future pages.
        blocked = False
        for _ in range(span + 6):
            if manager.throttle_wait(leader, IO_PAGE) > 0:
                blocked = True
                break
            if leader.exhausted:
                break
            manager.acquire(leader, IO_PAGE)
            leader.advance()
        cursor = manager._cursors["t"]
        assert len(cursor.groups) == 2
        assert blocked
        gap = cursor.groups[0].advanced - cursor.groups[1].advanced
        assert gap <= span

    def test_io_conservation_includes_abandoned_cost(self):
        """stall + overlapped + abandoned + in-flight == reads * io,
        now also under eviction waste and group retirements."""
        for capacity, prefetch in ((2, 2), (4, 3), (64, 2)):
            manager = ScanShareManager(BufferPool(capacity),
                                       prefetch_depth=prefetch,
                                       drift_bound=4,
                                       group_windows=True)
            fast = manager.attach("t", 16)
            slow = manager.attach("t", 16)
            credit = 0.0
            while not fast.exhausted:
                manager.acquire(fast, IO_PAGE, cpu_credit=credit)
                credit = 15.0
                fast.advance()
                if fast.served % 5 == 0 and not slow.exhausted:
                    manager.acquire(slow, IO_PAGE)
                    slow.advance()
            manager.detach(fast)
            while not slow.exhausted:
                manager.acquire(slow, IO_PAGE)
                slow.advance()
            manager.detach(slow)
            stats = manager.snapshot()[0]
            cursor = manager._cursors["t"]
            total = (stats.io_stall_cost + stats.io_overlapped_cost
                     + stats.io_abandoned_cost + cursor.pending_cost())
            assert total == pytest.approx(
                stats.physical_reads * IO_PAGE
            ), (capacity, prefetch)

    def test_drift_split_gain_cost_rule(self):
        # Small pool, big table: replay is expensive -> throttle.
        manager, leader, straggler = self.make_drifted(
            n_pages=24, lag=6, bound=4, capacity=8)
        assert manager.drift_split_gain("t", IO_PAGE) < 0
        # Pool covers the table: splitting is free -> split.
        manager2, _, _ = self.make_drifted(
            n_pages=24, lag=6, bound=4, capacity=64)
        assert manager2.drift_split_gain("t", IO_PAGE) > 0
        assert manager2.drift_split_gain("missing", IO_PAGE) == 0.0


class TestStragglerEdgeCases:
    """The straggler scenarios the drift bound exists for."""

    def _skewed_engine(self, drift_bound, group_windows=False,
                       rows=480, page_rows=20, pool_frac=0.4,
                       io_page=40.0):
        # CPU-dominant calibration: the disk (io_page=40) is cheaper
        # than the straggler's per-page CPU, so a slow consumer
        # genuinely drifts instead of being paced by the disk.
        catalog = Catalog()
        schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
        table = catalog.create("t", schema)
        table.insert_many([(i, float(i % 7)) for i in range(rows)])
        pages = table.page_count(page_rows)
        manager = ScanShareManager(
            BufferPool(max(2, int(pages * pool_frac))),
            prefetch_depth=2, drift_bound=drift_bound,
            group_windows=group_windows,
        )
        sim = Simulator(processors=8)
        engine = Engine(catalog, sim, costs=CostModel(io_page=io_page),
                        page_rows=page_rows, scan_manager=manager)
        return catalog, engine, sim, manager, pages

    def _run_convoy(self, engine, catalog, slow_factor):
        handles = []
        for i, factor in enumerate([1.0, 1.0, 1.0, slow_factor]):
            plan = scan_plan_with_factor(catalog, factor, f"s{i}")
            handles.append(engine.execute(plan, f"c{i}"))
        return handles

    def test_ten_x_consumer_is_bounded_by_throttle(self):
        """A 10x-per-page-CPU consumer: the governed convoy stays one
        physical pass; ungoverned it falls behind and re-reads."""
        reference = None
        reads = {}
        bound = 4
        for drift_bound in (None, bound):
            catalog, engine, sim, manager, pages = self._skewed_engine(
                drift_bound)
            handles = self._run_convoy(engine, catalog, 10.0)
            sim.run()
            rows = [sorted(h.rows) for h in handles]
            if reference is None:
                reference = rows[0]
            assert all(r == reference for r in rows)
            stats = manager.snapshot()[0]
            reads[drift_bound] = stats.physical_reads
            if drift_bound is not None:
                assert stats.max_lag <= bound
                assert stats.throttle_stall_cost > 0
            else:
                assert stats.max_lag > bound
        assert reads[bound] <= 1.5 * pages
        assert reads[None] > reads[bound]

    def test_straggler_detach_mid_drift_unblocks_the_head(self):
        manager = ScanShareManager(BufferPool(64), drift_bound=4)
        leader = manager.attach("t", 24)
        straggler = manager.attach("t", 24)
        for _ in range(6):
            manager.acquire(leader, IO_PAGE)
            leader.advance()
        assert manager.throttle_wait(leader, IO_PAGE) > 0
        manager.detach(straggler)
        assert manager.throttle_wait(leader, IO_PAGE) == 0.0
        # The freed convoy completes normally.
        while not leader.exhausted:
            manager.acquire(leader, IO_PAGE)
            leader.advance()
        manager.detach(leader)

    def test_straggler_detach_mid_drift_in_window_mode(self):
        """Abandoning a split-off straggler retires its window and
        the in-flight read cost is accounted, not lost."""
        manager = ScanShareManager(BufferPool(64), prefetch_depth=2,
                                   drift_bound=4, group_windows=True)
        leader = manager.attach("t", 24)
        straggler = manager.attach("t", 24)
        for _ in range(7):
            manager.acquire(leader, IO_PAGE, cpu_credit=10.0)
            leader.advance()
        cursor = manager._cursors["t"]
        assert len(cursor.groups) == 2
        # Let the window issue some prefetch of its own, then vanish.
        manager.acquire(straggler, IO_PAGE)
        straggler.advance()
        manager.detach(straggler)
        assert len(cursor.groups) == 1
        stats = manager.snapshot()[0]
        total = (stats.io_stall_cost + stats.io_overlapped_cost
                 + stats.io_abandoned_cost + cursor.pending_cost())
        assert total == pytest.approx(stats.physical_reads * IO_PAGE)

    def test_infinite_drift_bound_reproduces_fall_behind_bit_for_bit(self):
        """drift_bound=None and an effectively infinite bound walk the
        same schedule to identical stalls, stats, and row delivery."""

        def walk(manager):
            import random

            rng = random.Random(20260727)
            tickets = [manager.attach("t", 12) for _ in range(3)]
            stalls = []
            active = list(tickets)
            while active:
                ticket = rng.choice(active)
                # The slow consumer (index 2) moves rarely.
                if ticket is tickets[2] and rng.random() < 0.7:
                    continue
                wait = manager.throttle_wait(ticket, IO_PAGE)
                assert wait == 0.0
                stalls.append(manager.acquire(ticket, IO_PAGE,
                                              cpu_credit=12.0))
                ticket.advance()
                if ticket.exhausted:
                    manager.detach(ticket)
                    active.remove(ticket)
            return stalls, manager.snapshot()[0]

        baseline = ScanShareManager(BufferPool(8), prefetch_depth=2)
        infinite = ScanShareManager(BufferPool(8), prefetch_depth=2,
                                    drift_bound=10**9)
        stalls_a, stats_a = walk(baseline)
        stalls_b, stats_b = walk(infinite)
        assert stalls_a == stalls_b
        assert stats_a == stats_b


def scan_plan_with_factor(catalog, factor, op_id):
    """A fused scan whose predicate costs ``factor`` x the base."""
    from repro.engine import scan as scan_ctor
    from repro.engine.expressions import col, ge

    return scan_ctor(catalog, "t", columns=["k", "v"],
                     predicate=ge(col("k"), 0), op_id=op_id,
                     cost_factor=factor)


class TestEngineWiring:
    def test_engine_adopts_manager_pool(self):
        manager = make_manager()
        catalog = Catalog()
        engine = Engine(catalog, Simulator(2), scan_manager=manager)
        assert engine.pool is manager.pool

    def test_mismatched_pool_rejected(self):
        from repro.errors import EngineError

        manager = make_manager()
        with pytest.raises(EngineError, match="different BufferPool"):
            Engine(Catalog(), Simulator(2), scan_manager=manager,
                   buffer_pool=BufferPool(8))

    def test_resident_pages_counts_one_table(self):
        pool = BufferPool(16)
        for i in range(5):
            pool.access(("tbl", "a", i))
        for i in range(3):
            pool.access(("tbl", "b", i))
        assert pool.resident_pages("a") == 5
        assert pool.resident_pages("b") == 3
        assert pool.resident_pages("c") == 0
