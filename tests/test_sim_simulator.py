"""Unit tests for the discrete-event simulator (repro.sim)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import CLOSED, Close, Compute, Get, Put, Simulator, Sleep


def computer(cost, chunks=1):
    def gen():
        for _ in range(chunks):
            yield Compute(cost)

    return gen()


class TestComputeScheduling:
    def test_single_task_time(self):
        sim = Simulator(processors=1)
        sim.spawn(computer(5.0), name="t")
        sim.run()
        assert sim.now == pytest.approx(5.0)

    def test_two_tasks_one_processor_serialize(self):
        sim = Simulator(processors=1)
        sim.spawn(computer(3.0), name="a")
        sim.spawn(computer(4.0), name="b")
        sim.run()
        assert sim.now == pytest.approx(7.0)

    def test_two_tasks_two_processors_parallel(self):
        sim = Simulator(processors=2)
        sim.spawn(computer(3.0), name="a")
        sim.spawn(computer(4.0), name="b")
        sim.run()
        assert sim.now == pytest.approx(4.0)

    def test_round_robin_fairness(self):
        # Two equal tasks of 4 chunks on one CPU interleave, so both
        # finish within one chunk of each other, not back-to-back.
        sim = Simulator(processors=1)
        a = sim.spawn(computer(1.0, chunks=4), name="a")
        b = sim.spawn(computer(1.0, chunks=4), name="b")
        sim.run()
        assert abs(a.finished_at - b.finished_at) <= 1.0 + 1e-9
        assert sim.now == pytest.approx(8.0)

    def test_busy_time_accounting(self):
        sim = Simulator(processors=2)
        t1 = sim.spawn(computer(3.0), name="a")
        t2 = sim.spawn(computer(4.0), name="b")
        sim.run()
        assert t1.busy_time == pytest.approx(3.0)
        assert t2.busy_time == pytest.approx(4.0)
        assert sim.total_busy_time == pytest.approx(7.0)
        assert sim.utilization() == pytest.approx(7.0 / 8.0)

    def test_zero_cost_compute_advances_nothing(self):
        sim = Simulator(processors=1)
        sim.spawn(computer(0.0, chunks=3), name="t")
        sim.run()
        assert sim.now == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(SimulationError):
            Compute(-1.0)

    def test_invalid_processor_count(self):
        with pytest.raises(SimulationError):
            Simulator(processors=0)

    def test_run_until_pauses_and_resumes(self):
        sim = Simulator(processors=1)
        sim.spawn(computer(10.0), name="t")
        sim.run(until=4.0)
        assert sim.now == pytest.approx(4.0)
        assert sim.completions == 0
        sim.run()
        assert sim.now == pytest.approx(10.0)
        assert sim.completions == 1

    def test_completion_callback_fires_at_finish_time(self):
        sim = Simulator(processors=1)
        seen = []
        sim.spawn(
            computer(2.0), name="t", on_done=lambda t: seen.append((t.name, sim.now))
        )
        sim.run()
        assert seen == [("t", pytest.approx(2.0))]

    def test_on_done_can_respawn(self):
        sim = Simulator(processors=1)
        counter = {"n": 0}

        def respawn(task):
            counter["n"] += 1
            if counter["n"] < 3:
                sim.spawn(computer(1.0), name=f"t{counter['n']}", on_done=respawn)

        sim.spawn(computer(1.0), name="t0", on_done=respawn)
        sim.run()
        assert counter["n"] == 3
        assert sim.now == pytest.approx(3.0)


class TestContention:
    def test_kappa_one_is_no_slowdown(self):
        sim = Simulator(processors=2, contention=1.0)
        sim.spawn(computer(3.0), name="a")
        sim.spawn(computer(3.0), name="b")
        sim.run()
        assert sim.now == pytest.approx(3.0)

    def test_sublinear_kappa_slows_parallel_tasks(self):
        sim = Simulator(processors=2, contention=0.5)
        sim.spawn(computer(3.0), name="a")
        sim.spawn(computer(3.0), name="b")
        sim.run()
        # 2 busy contexts at kappa=.5 -> speed 2**0.5/2 each.
        assert sim.now > 3.0

    def test_single_task_unaffected_by_contention(self):
        sim = Simulator(processors=4, contention=0.5)
        sim.spawn(computer(3.0), name="a")
        sim.run()
        assert sim.now == pytest.approx(3.0)


class TestQueues:
    def test_pipeline_transfers_all_items(self):
        sim = Simulator(processors=2)
        q = sim.queue("p->c", capacity=2)
        received = []

        def producer():
            for i in range(10):
                yield Compute(1.0)
                yield Put(q, i)
            yield Close(q)

        def consumer():
            while True:
                item = yield Get(q)
                if item is CLOSED:
                    return
                yield Compute(0.5)
                received.append(item)

        sim.spawn(producer(), name="p")
        sim.spawn(consumer(), name="c")
        sim.run()
        assert received == list(range(10))
        assert q.total_enqueued == 10
        assert q.total_dequeued == 10

    def test_bounded_queue_throttles_fast_producer(self):
        # Producer makes an item every 1.0; consumer needs 4.0 each.
        # With capacity 2 the producer must wait; total time is
        # consumer-bound: ~ 10 * 4.
        sim = Simulator(processors=2)
        q = sim.queue("p->c", capacity=2)

        def producer():
            for i in range(10):
                yield Compute(1.0)
                yield Put(q, i)
            yield Close(q)

        def consumer():
            while True:
                item = yield Get(q)
                if item is CLOSED:
                    return
                yield Compute(4.0)

        p = sim.spawn(producer(), name="p")
        sim.spawn(consumer(), name="c")
        sim.run()
        assert sim.now == pytest.approx(41.0)
        # The producer finished long before the consumer.
        assert p.finished_at < sim.now

    def test_consumer_blocks_until_item_arrives(self):
        sim = Simulator(processors=2)
        q = sim.queue("q", capacity=1)
        times = []

        def producer():
            yield Compute(5.0)
            yield Put(q, "x")
            yield Close(q)

        def consumer():
            item = yield Get(q)
            times.append((item, sim.now))
            while (yield Get(q)) is not CLOSED:
                pass

        sim.spawn(consumer(), name="c")
        sim.spawn(producer(), name="p")
        sim.run()
        assert times == [("x", pytest.approx(5.0))]

    def test_close_wakes_all_getters(self):
        sim = Simulator(processors=4)
        q = sim.queue("q", capacity=1)
        woken = []

        def consumer(i):
            item = yield Get(q)
            woken.append((i, item))

        def closer():
            yield Compute(1.0)
            yield Close(q)

        for i in range(3):
            sim.spawn(consumer(i), name=f"c{i}")
        sim.spawn(closer(), name="x")
        sim.run()
        assert sorted(woken) == [(0, CLOSED), (1, CLOSED), (2, CLOSED)]

    def test_get_after_close_drains_remaining_items(self):
        sim = Simulator(processors=1)
        q = sim.queue("q", capacity=4)
        got = []

        def producer():
            yield Put(q, 1)
            yield Put(q, 2)
            yield Close(q)
            yield Compute(1.0)

        def consumer():
            while True:
                item = yield Get(q)
                got.append(item)
                if item is CLOSED:
                    return

        sim.spawn(producer(), name="p")
        sim.spawn(consumer(), name="c")
        sim.run()
        assert got == [1, 2, CLOSED]

    def test_put_to_closed_queue_is_error(self):
        sim = Simulator(processors=1)
        q = sim.queue("q", capacity=1)

        def bad():
            yield Close(q)
            yield Put(q, 1)

        sim.spawn(bad(), name="bad")
        with pytest.raises(SimulationError):
            sim.run()

    def test_invalid_capacity(self):
        sim = Simulator(processors=1)
        with pytest.raises(SimulationError):
            sim.queue("q", capacity=0)

    def test_multiple_producers_single_consumer(self):
        sim = Simulator(processors=4)
        q = sim.queue("q", capacity=2)
        done = {"producers": 0}
        got = []

        def producer(i):
            for j in range(5):
                yield Compute(1.0)
                yield Put(q, (i, j))
            done["producers"] += 1
            if done["producers"] == 3:
                yield Close(q)

        def consumer():
            while True:
                item = yield Get(q)
                if item is CLOSED:
                    return
                yield Compute(0.1)
                got.append(item)

        for i in range(3):
            sim.spawn(producer(i), name=f"p{i}")
        sim.spawn(consumer(), name="c")
        sim.run()
        assert len(got) == 15
        assert sorted(got) == sorted((i, j) for i in range(3) for j in range(5))


class TestDeadlockAndErrors:
    def test_deadlock_detected(self):
        sim = Simulator(processors=1)
        q = sim.queue("never-fed", capacity=1)

        def starving():
            yield Get(q)

        sim.spawn(starving(), name="s")
        with pytest.raises(DeadlockError, match="s"):
            sim.run()

    def test_task_exception_propagates(self):
        sim = Simulator(processors=1)

        def crasher():
            yield Compute(1.0)
            raise ValueError("boom")

        sim.spawn(crasher(), name="crash")
        with pytest.raises(SimulationError, match="boom"):
            sim.run()

    def test_livelock_guard(self):
        sim = Simulator(processors=1, max_zero_time_steps=100)

        def spinner():
            while True:
                yield Compute(0.0)

        sim.spawn(spinner(), name="spin")
        with pytest.raises(SimulationError, match="livelock"):
            sim.run()

    def test_unknown_request_rejected(self):
        sim = Simulator(processors=1)

        def weird():
            yield "not-a-request"

        sim.spawn(weird(), name="w")
        with pytest.raises(SimulationError, match="unknown request"):
            sim.run()


class TestSleep:
    def test_sleep_does_not_hold_processor(self):
        sim = Simulator(processors=1)

        def sleeper():
            yield Sleep(10.0)
            yield Compute(1.0)

        def worker():
            yield Compute(5.0)

        sim.spawn(sleeper(), name="s")
        sim.spawn(worker(), name="w")
        sim.run()
        # worker's 5.0 of compute overlaps the sleep; total 11, not 16.
        assert sim.now == pytest.approx(11.0)

    def test_negative_sleep_rejected(self):
        with pytest.raises(SimulationError):
            Sleep(-1.0)


class TestDeterminism:
    def test_identical_runs_produce_identical_timelines(self):
        def build_and_run():
            sim = Simulator(processors=3)
            q = sim.queue("q", capacity=2)
            order = []

            def producer(i):
                for j in range(4):
                    yield Compute(1.0 + 0.1 * i)
                    yield Put(q, (i, j))
                if i == 2:
                    yield Close(q)

            def consumer():
                while True:
                    item = yield Get(q)
                    if item is CLOSED:
                        return
                    yield Compute(0.7)
                    order.append((item, round(sim.now, 9)))

            for i in range(3):
                sim.spawn(producer(i), name=f"p{i}")
            sim.spawn(consumer(), name="c")
            sim.run()
            return order, sim.now

        first = build_and_run()
        second = build_and_run()
        assert first == second
