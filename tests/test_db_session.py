"""The Session/Database facade: routing, results, and the auto flip.

The acceptance bar from the facade PR: ``Session.submit()`` of N
identical queries reproduces the fig_mem Part B flip — shares against
a cold cache, declines once warm — with zero manual wiring, and every
submission comes back as one unified ``QueryResult``.
"""

import gc
import weakref

import pytest

from repro.core.decision import ShareDecision
from repro.db import Database, Query, RuntimeConfig, Session
from repro.engine import CostModel, Engine, MemoryBroker
from repro.engine.expressions import col, lt, mul
from repro.engine.plan import AggSpec
from repro.engine.wiring import resolve_storage
from repro.errors import EngineError, StorageError
from repro.obs.metrics import render_resources
from repro.policies import AlwaysShare, NeverShare, ResourceOutlook
from repro.policies.model_guided import price_verdict
from repro.sim import Simulator
from repro.storage import BufferPool, Catalog, DataType, ScanShareManager, Schema

PAGE_ROWS = 64
BASE_ROWS = 3000
IO_COSTS = CostModel(io_page=400.0, spill_page=500.0)


def flip_catalog(tables=("t",), rows=BASE_ROWS, seed=2007):
    catalog = Catalog()
    schema = Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    data = []
    state = seed & 0x7FFFFFFF or 1
    for i in range(rows):
        state = (state * 48271) % 2147483647
        data.append((i, state / 2147483647.0))
    for name in tables:
        catalog.create(name, schema).insert_many(data)
    return catalog


def flip_query(session, table="t"):
    return (
        session.table(table, columns=["k", "v"])
        .where(lt(col("v"), 0.25))
        .select(("k", col("k"), DataType.INT),
                ("vv", mul(col("v"), col("v")), DataType.FLOAT))
        .agg(AggSpec("sum", "total", col("vv")), AggSpec("count", "n"))
        .named(f"flip:{table}")
        .build()
    )


@pytest.fixture()
def session():
    catalog = flip_catalog()
    return Database.open(catalog, RuntimeConfig(
        pool_pages=256, processors=4, cost_model=IO_COSTS,
    ))


class TestSubmitAndRun:
    def test_results_in_submission_order(self, session):
        query = flip_query(session)
        for i in range(3):
            session.submit(query, label=f"c{i}", share=False)
        results = session.run_all()
        assert [r.label for r in results] == ["c0", "c1", "c2"]
        assert all(not r.shared and r.group_size == 1 for r in results)
        assert all(r.rows == results[0].rows for r in results)

    def test_run_single(self, session):
        result = session.run(flip_query(session), label="solo")
        assert result.label == "solo"
        assert not result.shared
        assert result.latency > 0
        assert result.makespan == session.now
        assert len(result.rows) == 1

    def test_empty_run_all(self, session):
        assert session.run_all() == []

    def test_plain_plan_runs_solo(self, session):
        plan = flip_query(session).plan
        result = session.run(plan)
        assert not result.shared
        assert result.decision is None

    def test_forced_share_groups_by_signature(self, session):
        query = flip_query(session)
        for i in range(4):
            session.submit(query, label=f"c{i}", share=True)
        results = session.run_all()
        assert all(r.shared and r.group_size == 4 for r in results)

    def test_different_signatures_never_merge(self):
        catalog = flip_catalog(tables=("a", "b"))
        session = Database.open(catalog, RuntimeConfig(processors=4))
        session.submit(flip_query(session, "a"), share=True)
        session.submit(flip_query(session, "b"), share=True)
        results = session.run_all()
        assert all(not r.shared for r in results)

    def test_delayed_submission_runs_solo_later(self, session):
        query = flip_query(session)
        session.submit(query, label="now", share=False)
        session.submit(query, label="later", share=False, delay=5000.0)
        now, later = session.run_all()
        assert later.submitted_at >= 5000.0
        assert sorted(later.rows) == sorted(now.rows)

    def test_unknown_table_fails_at_builder_time(self, session):
        with pytest.raises(StorageError):
            session.table("nope")

    def test_schema_error_surfaces_at_build_time(self, session):
        builder = session.table("t", columns=["k"]).where(lt(col("v"), 0.5))
        with pytest.raises(Exception):
            builder.plan()  # v was narrowed away: compile fails pre-run

    def test_rejects_foreign_objects(self, session):
        with pytest.raises(EngineError):
            session.submit(object())


class TestAutoSharingFlip:
    """The PR's acceptance criterion, end to end."""

    def test_shares_cold_declines_warm_no_wiring(self, session):
        query = flip_query(session)
        for i in range(8):
            session.submit(query, label=f"cold{i}")
        cold = session.run_all()
        assert all(r.shared and r.group_size == 8 for r in cold)
        assert all(isinstance(r.decision, ShareDecision) for r in cold)
        assert cold[0].decision.share
        (profiled,) = session._specs.values()

        # Same session, same queries: the pool is now warm, the same
        # advisor declines, everything runs independently.
        for i in range(8):
            session.submit(query, label=f"warm{i}")
        warm = session.run_all()
        assert all(not r.shared and r.group_size == 1 for r in warm)
        assert not warm[0].decision.share
        assert warm[0].rows == cold[0].rows
        # The operation was profiled once; the warm batch reused it.
        (reused,) = session._specs.values()
        assert reused is profiled

    def test_advise_matches_routing(self, session):
        query = flip_query(session)
        assert session.advise(query, 8).share is True
        session.prewarm("t")
        assert session.advise(query, 8).share is False

    def test_advise_walks_the_plan_a_bounded_number_of_times(
        self, session, walk_visits, monkeypatch
    ):
        """One verdict against a cold pool (so the spec is adjusted and
        re-derived) costs a few passes over the plan — the same few for
        a group of 128 as for a group of 8 — and one resource
        projection, which is also what the audit record shows."""
        query = flip_query(session)
        session.advise(query, 8)  # profile the operation once
        signature = session._as_query(query).pivot_signature
        plan_size = len(session._specs[signature][0].operators())

        projections = [0]
        project = ResourceOutlook.pivot_extra_work

        def counted_project(self, *args):
            projections[0] += 1
            return project(self, *args)

        monkeypatch.setattr(ResourceOutlook, "pivot_extra_work", counted_project)
        counts = {}
        for m in (8, 128):
            walk_visits[0] = projections[0] = 0
            session.advise(query, m)
            record = session.audit_log()[-1]
            assert projections[0] == 1
            assert record.projected_io_extra == project(session._outlook, signature, m) > 0
            counts[m] = walk_visits[0]
        assert counts[128] == counts[8] <= 3 * plan_size

        # The four-way verdict prices its arms from that same one
        # projection, through the one pricing function — and the
        # built-in decider's choose_mode is that function at the
        # session's processors, whatever it is offered.
        projections[0] = 0
        spec, pivot = session._specs[signature]
        decision, projection, priced = price_verdict(
            spec,
            pivot,
            6,
            session.config.processors,
            threshold=1.0,
            contention=None,
            outlook=session.outlook,
            key=signature,
            dop=2,
            mode_contention=session.config.contention,
        )
        assert projections[0] == 1
        assert projection.decision is decision
        assert priced["projected_io_extra"] == project(session._outlook, signature, 6)
        assert projection == ResourceOutlook.share_vs_parallelize(
            decision,
            2,
            contention=session.config.contention,
            spec=session._outlook.adjusted_spec(signature, spec, pivot, 6),
            pivot_name=pivot,
        )
        decider, key = session.decider(query)
        assert key == signature
        assert decider.choose_mode(key, 6, 1, 2) == projection

    def test_decider_keys_specs_by_pivot_signature(self, session):
        """The built-in decider is one ModelGuidedPolicy whose specs are
        keyed by pivot signature: an ad-hoc query that reuses a name
        with new constants is priced on its own profile."""

        def adhoc(cutoff):
            return (
                session.table("t", columns=["k", "v"])
                .where(lt(col("v"), cutoff))
                .agg(AggSpec("count", "n"))
                .named("adhoc")
                .build()
            )

        decider, narrow = session.decider(adhoc(0.25))
        same, wide = session.decider(adhoc(0.75))
        assert same is decider and session.coordinator.policy is None
        assert narrow != wide
        assert decider.specs[narrow] is not decider.specs[wide]

    def test_advise_requires_a_pivot(self, session):
        plan = flip_query(session).plan
        pivotless = Query(plan=plan, pivot_op_id=None, name="solo-only")
        with pytest.raises(EngineError):
            session.advise(pivotless, 8)

    def test_declared_cpu_skew_sticks_to_the_operation(self, session):
        """A skew declared via advise() persists: later advise calls
        (and run_all's routing, which calls advise with the default)
        reuse it instead of silently resetting to a uniform convoy."""
        query = flip_query(session)
        baseline = session.advise(query, 8)
        skewed = session.advise(query, 8, cpu_skew=32.0)
        assert skewed.benefit >= baseline.benefit
        # The default (None) keeps the stored projection...
        assert session.advise(query, 8).benefit == skewed.benefit
        signature = session._as_query(query).pivot_signature
        assert session._outlook.profiles[signature].cpu_skew == 32.0
        # ...and declaring a new value replaces it.
        session.advise(query, 8, cpu_skew=1.0)
        assert session._outlook.profiles[signature].cpu_skew == 1.0
        with pytest.raises(EngineError):
            session.advise(query, 8, cpu_skew=0.5)


class TestGroupingKeys:
    def test_same_signature_different_pivot_ids_never_merge(self):
        """execute_group addresses the pivot by op_id in every member:
        equal signatures with mismatched explicit op_ids must route to
        separate groups, not crash."""
        from repro.engine.plan import scan as plan_scan

        catalog = flip_catalog()
        session = Database.open(catalog, RuntimeConfig(processors=4))
        named = plan_scan(catalog, "t", columns=["k"], op_id="mine")
        auto = plan_scan(catalog, "t", columns=["k"])
        assert named.signature == auto.signature
        session.submit(Query(named, "mine", "q"), label="a", share=True)
        session.submit(Query(auto, auto.op_id, "q"), label="b", share=True)
        results = session.run_all()
        assert all(not r.shared for r in results)
        assert results[0].rows == results[1].rows

    def test_same_signature_different_names_never_merge(self):
        """Policies key specs on the query name; same-operation
        submissions under different names stay separate."""
        catalog = flip_catalog()
        session = Database.open(catalog, RuntimeConfig(processors=4),
                                policy=AlwaysShare())
        plan = flip_query(session).plan
        pivot = flip_query(session).pivot_op_id
        session.submit(Query(plan, pivot, "alpha"), share=True)
        session.submit(Query(plan, pivot, "beta"), share=True)
        results = session.run_all()
        assert all(not r.shared for r in results)


class TestPolicyFeedback:
    def test_completed_groups_reach_observe_group(self):
        """Learning policies depend on the observe_group hook."""
        observed = []

        class Recording(AlwaysShare):
            def observe_group(self, query_name, group_size, tasks):
                observed.append((query_name, group_size, len(list(tasks))))

        catalog = flip_catalog()
        session = Database.open(catalog, RuntimeConfig(processors=4),
                                policy=Recording())
        query = flip_query(session)
        for i in range(3):
            session.submit(query)
        session.run_all()
        session.submit(query, share=False)
        session.run_all()
        assert len(observed) == 2
        name, size, n_tasks = observed[0]
        assert name == "flip:t" and size == 3 and n_tasks > 0
        assert observed[1][1] == 1


class TestPolicyOverride:
    def test_always_share_groups_without_profiling(self):
        catalog = flip_catalog()
        session = Database.open(catalog, RuntimeConfig(processors=4),
                                policy=AlwaysShare())
        query = flip_query(session)
        for i in range(4):
            session.submit(query)
        results = session.run_all()
        assert all(r.shared and r.group_size == 4 for r in results)
        # Policy verdicts are booleans, not model decisions.
        assert all(r.decision is None for r in results)

    def test_never_share_runs_solo_but_forced_still_group(self):
        catalog = flip_catalog()
        session = Database.open(catalog, RuntimeConfig(processors=4),
                                policy=NeverShare())
        query = flip_query(session)
        session.submit(query, label="f0", share=True)
        session.submit(query, label="f1", share=True)
        session.submit(query, label="free")
        results = session.run_all()
        by_label = {r.label: r for r in results}
        assert by_label["f0"].shared and by_label["f0"].group_size == 2
        assert by_label["f1"].shared
        assert not by_label["free"].shared


class TestSessionState:
    def test_time_and_results_accumulate(self, session):
        query = flip_query(session)
        first_result = session.run(query)
        first = session.now
        second_result = session.run(query)
        assert session.now > first
        assert second_result.rows == first_result.rows
        assert second_result.finished_at > first_result.finished_at
        assert len(session.audit_log()) == 2

    def test_session_keeps_no_result(self, session):
        """A result the caller drops after ``run()`` is collected: the
        session holds no reference to it (``run_all`` returns every
        result of a batch; nothing else keeps them)."""
        result = session.run(flip_query(session))
        dropped = weakref.ref(result)
        del result
        gc.collect()
        assert dropped() is None

    def test_prewarm_requires_a_pool(self):
        catalog = flip_catalog()
        session = Database.open(catalog, RuntimeConfig())
        with pytest.raises(EngineError):
            session.prewarm("t")

    def test_resources_render(self, session):
        result = session.run(flip_query(session))
        text = render_resources(result.metrics)
        assert text.startswith("buffer pool")
        assert text == render_resources(session.metrics().snapshot())

    def test_result_render_mentions_verdict(self, session):
        result = session.run(flip_query(session), label="r")
        assert "solo" in result.render()

    def test_database_open_accepts_preset_names(self):
        catalog = flip_catalog()
        session = Database.open(catalog, "laptop")
        assert isinstance(session, Session)
        assert session.pool is not None
        assert session.scans is not None
        assert session.memory is not None

    def test_unknown_preset_rejected(self):
        with pytest.raises(EngineError):
            RuntimeConfig.preset("mainframe")


class TestRuntimeConfigWiring:
    def test_presets_build_coherent_components(self):
        for name in ("laptop", "cmp32", "unbounded"):
            config = RuntimeConfig.preset(name)
            pool, memory, scans, depth = config.build_storage()
            if scans is not None:
                assert scans.pool is pool
            if memory is not None:
                assert memory.pool is pool
            assert depth >= 0

    def test_prefetch_without_pool_rejected(self):
        with pytest.raises(EngineError):
            RuntimeConfig(prefetch_depth=2)

    def test_with_overrides(self):
        config = RuntimeConfig.preset("laptop").with_(processors=16)
        assert config.processors == 16
        assert config.work_mem == RuntimeConfig.preset("laptop").work_mem

    def test_work_mem_alone_creates_bound_pool(self):
        pool, memory, _, _ = RuntimeConfig(work_mem=8).build_storage()
        assert pool is not None
        assert memory.pool is pool
        assert pool.capacity >= 16

    def test_spill_prefetch_inherits_scan_depth(self):
        config = RuntimeConfig(pool_pages=32, prefetch_depth=3)
        _, _, scans, depth = config.build_storage()
        assert scans.prefetch_depth == 3
        assert depth == 3


class TestEngineKwargValidation:
    """The validation gaps the facade exposed, now centralized."""

    def test_bound_broker_rejects_shadowing_pool(self):
        catalog = flip_catalog()
        broker = MemoryBroker(8)
        Engine(catalog, Simulator(processors=1), memory=broker)
        assert broker.pool is not None
        with pytest.raises(EngineError):
            Engine(catalog, Simulator(processors=1),
                   buffer_pool=BufferPool(64), memory=broker)

    def test_bound_broker_reuses_its_pool(self):
        catalog = flip_catalog()
        broker = MemoryBroker(8)
        first = Engine(catalog, Simulator(processors=1), memory=broker)
        second = Engine(catalog, Simulator(processors=1), memory=broker)
        assert second.pool is first.pool

    def test_manager_pool_identity_still_enforced(self):
        catalog = flip_catalog()
        manager = ScanShareManager(BufferPool(32))
        with pytest.raises(EngineError):
            Engine(catalog, Simulator(processors=1),
                   buffer_pool=BufferPool(32), scan_manager=manager)

    def test_resolve_storage_is_the_shared_rule(self):
        pool = BufferPool(32)
        manager = ScanShareManager(pool, prefetch_depth=2)
        out_pool, _, out_scans, depth = resolve_storage(None, None, manager, None)
        assert out_pool is pool
        assert out_scans is manager
        assert depth == 2
        with pytest.raises(EngineError):
            resolve_storage(None, None, None, -1)

    def test_broker_bind_pool_is_sticky(self):
        broker = MemoryBroker(4)
        pool = BufferPool(16)
        broker.bind_pool(pool)
        broker.bind_pool(pool)  # idempotent
        with pytest.raises(EngineError):
            broker.bind_pool(BufferPool(16))
