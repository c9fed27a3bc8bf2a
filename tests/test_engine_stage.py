"""Unit tests for stage plumbing and the cost model."""

import pytest

from repro.engine.costs import CostModel
from repro.engine.packet import RowBatch
from repro.engine.stage import BatchEmitter
from repro.errors import EngineError
from repro.sim import CLOSED, Get, Simulator


@pytest.fixture
def costs():
    return CostModel()


class TestCostModel:
    def test_defaults_valid(self, costs):
        assert costs.scan_tuple > 0

    def test_negative_cost_rejected(self):
        with pytest.raises(EngineError):
            CostModel(scan_tuple=-1.0)

    def test_nan_cost_rejected(self):
        with pytest.raises(EngineError):
            CostModel(output_page=float("nan"))

    def test_page_output_cost_scales_with_consumers(self, costs):
        one = costs.page_output_cost(64, width=4, consumers=1)
        five = costs.page_output_cost(64, width=4, consumers=5)
        assert five == pytest.approx(5 * one)

    def test_page_output_cost_scales_with_width(self, costs):
        narrow = costs.page_output_cost(64, width=1)
        wide = costs.page_output_cost(64, width=7)
        assert wide > narrow
        assert (wide - narrow) == pytest.approx(64 * 6 * costs.output_value)


class TestEmitterMechanics:
    """Batching, multiplexing, and validation of the emitter."""

    def run_emitter(self, rows, page_rows=4, consumers=1, capacity=100):
        sim = Simulator(processors=1)
        queues = [sim.queue(f"q{i}", capacity) for i in range(consumers)]
        emitter = BatchEmitter(queues, page_rows, CostModel(), width=2)
        received = {i: [] for i in range(consumers)}

        def producer():
            yield from emitter.emit_rows(rows)
            yield from emitter.close()

        def consumer(i):
            while True:
                page = yield Get(queues[i])
                if page is CLOSED:
                    return
                received[i].append(list(page.rows))

        sim.spawn(producer(), name="p")
        for i in range(consumers):
            sim.spawn(consumer(i), name=f"c{i}")
        sim.run()
        return emitter, received, sim

    def test_batches_into_full_pages(self):
        rows = [(i, i) for i in range(10)]
        emitter, received, _ = self.run_emitter(rows, page_rows=4)
        sizes = [len(p) for p in received[0]]
        assert sizes == [4, 4, 2]
        assert emitter.pages_emitted == 3
        assert emitter.rows_emitted == 10

    def test_every_consumer_gets_every_page(self):
        rows = [(i, i) for i in range(6)]
        _, received, _ = self.run_emitter(rows, page_rows=4, consumers=3)
        flat = {i: [r for p in received[i] for r in p] for i in received}
        assert flat[0] == flat[1] == flat[2] == rows

    def test_multiplexing_charges_per_consumer(self):
        rows = [(i, i) for i in range(8)]
        _, _, sim1 = self.run_emitter(rows, consumers=1)
        _, _, sim3 = self.run_emitter(rows, consumers=3)
        assert sim3.total_busy_time == pytest.approx(
            3 * sim1.total_busy_time
        )

    def test_close_without_rows(self):
        emitter, received, _ = self.run_emitter([], page_rows=4)
        assert received[0] == []
        assert emitter.pages_emitted == 0

    def test_requires_output_queue(self):
        with pytest.raises(EngineError):
            BatchEmitter([], 4, CostModel())

    def test_invalid_page_rows(self):
        sim = Simulator(processors=1)
        with pytest.raises(EngineError):
            BatchEmitter([sim.queue("q")], 0, CostModel())

    def test_invalid_width(self):
        sim = Simulator(processors=1)
        with pytest.raises(EngineError):
            BatchEmitter([sim.queue("q")], 4, CostModel(), width=0)


class TestBatchEmitter:
    """The batched emitter API: row lists and whole batches."""

    def run_batched(self, emit_calls, page_rows=4, consumers=1, width=2):
        sim = Simulator(processors=1)
        queues = [sim.queue(f"q{i}", 100) for i in range(consumers)]
        emitter = BatchEmitter(queues, page_rows, CostModel(), width=width)
        received = []

        def producer():
            for method, payload in emit_calls:
                yield from getattr(emitter, method)(*payload)
            yield from emitter.close()

        def consumer():
            while True:
                batch = yield Get(queues[0])
                if batch is CLOSED:
                    return
                received.append(list(batch.rows))

        sim.spawn(producer(), name="p")
        sim.spawn(consumer(), name="c")
        sim.run()
        return emitter, received, sim

    def test_emit_rows_and_columnar_batch_agree(self):
        rows = [(i, float(i)) for i in range(10)]
        batch = RowBatch.from_columns([list(c) for c in zip(*rows)], len(rows))
        by_rows = self.run_batched([("emit_rows", (rows,))])
        by_batch = self.run_batched([("emit_batch", (batch,))])
        assert by_rows[1] == by_batch[1]
        assert by_rows[2].now == by_batch[2].now

    def test_aligned_batch_passes_through_unsplit(self):
        rows = tuple((i, float(i)) for i in range(4))
        batch = RowBatch.from_rows(rows, 2)
        emitter, received, _ = self.run_batched([("emit_batch", (batch,))])
        assert received == [list(rows)]
        assert emitter.pages_emitted == 1

    def test_mixed_representations_preserve_row_order(self):
        rows = [(i, float(i)) for i in range(6)]
        batch = RowBatch.from_columns([[10, 11], [10.0, 11.0]], 2)
        _, received, _ = self.run_batched(
            [("emit_rows", (rows[:3],)),
             ("emit_batch", (batch,)),
             ("emit_rows", (rows[3:],))],
        )
        flat = [r for page in received for r in page]
        assert flat == rows[:3] + [(10, 10.0), (11, 11.0)] + rows[3:]

    def test_split_emit_calls_match_single_call(self):
        rows = [(i, float(i)) for i in range(11)]
        _, whole, sim_w = self.run_batched([("emit_rows", (rows,))])
        _, split, sim_s = self.run_batched(
            [("emit_rows", ([r],)) for r in rows]
        )
        assert split == whole
        assert repr(sim_s.now) == repr(sim_w.now)
