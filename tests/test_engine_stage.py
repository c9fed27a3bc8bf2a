"""Unit tests for stage plumbing and the cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.costs import CostModel
from repro.engine.packet import RowBatch
from repro.engine.stage import BatchEmitter
from repro.errors import EngineError
from repro.sim import CLOSED, Get, Simulator
from repro.sim.events import Close, Compute, Put
from repro.sim.queues import SimQueue

PAGE_ROWS = 4
WIDTH = 2
emitted_rows = st.tuples(st.integers(-5, 5) | st.none(), st.integers(0, 3).map(float))


@st.composite
def emit_calls(draw):
    """One emit call: ``(method, rows, selections)``. ``emit_rows`` and
    ``emit_columns`` take ``rows`` as they are; a column- or row-backed
    batch is wrapped around ``rows`` and viewed through each selection
    in turn, so it emits the rows every selection kept."""
    method = draw(st.sampled_from(["emit_rows", "emit_columns", "columns", "rows"]))
    rows = draw(st.lists(emitted_rows, max_size=2 * PAGE_ROWS + 1))
    selections = []
    if method in ("columns", "rows"):
        kept = rows
        for _ in range(draw(st.integers(0, 2))):
            flags = draw(st.lists(st.booleans(), min_size=len(kept), max_size=len(kept)))
            selections.append(flags)
            kept = [row for row, keep in zip(kept, flags) if keep]
    return method, rows, selections


def _emit(emitter, method, rows, selections):
    """Drive one emit call; returns the rows it emits."""
    if method == "emit_rows":
        return emitter.emit_rows(rows), rows
    columns = [tuple(column) for column in zip(*rows)] or [()] * WIDTH
    if method == "emit_columns":
        return emitter.emit_columns(columns), rows
    if method == "columns":
        batch = RowBatch.from_columns(columns, len(rows))
    else:
        batch = RowBatch.from_rows(tuple(rows), WIDTH)
    for flags in selections:
        batch = batch.select(flags, sum(flags))
        rows = [row for row, keep in zip(rows, flags) if keep]
    return emitter.emit_batch(batch), rows


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
        _, received, _ = self.run_emitter(rows, page_rows=4)
        assert len(received[0]) == 3
        assert [len(p) for p in received[0]] == [4, 4, 2]

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
        _, received, _ = self.run_emitter([], page_rows=4)
        assert len(received[0]) == 0

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
        _, received, _ = self.run_batched([("emit_batch", (batch,))])
        assert len(received) == 1
        assert received == [list(rows)]

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

    @given(calls=st.lists(emit_calls(), max_size=10), consumers=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_any_mix_of_backings_cuts_the_pages_of_one_row_stream(self, calls, consumers):
        """Rows, columns and whole batches (column-backed, row-backed,
        ``select`` views of either), interleaved: the emitter yields
        exactly the events ``emit_rows`` gives over the concatenated
        rows; with no row-backed input, every page is column-backed."""

        def drive(feed):
            queues = [SimQueue(f"q{i}", 1 << 10) for i in range(consumers)]
            emitter = BatchEmitter(queues, PAGE_ROWS, CostModel(), width=WIDTH)
            events, backings = [], []
            for steps in [*feed(emitter), emitter.close()]:
                for event in steps:
                    if type(event) is Compute:
                        events.append(("compute", event.cost))
                    elif type(event) is Put:
                        events.append(("put", queues.index(event.queue), event.item.rows))
                        backings.append(event.item._columns is not None)
                    else:
                        assert type(event) is Close
                        events.append(("close", queues.index(event.queue)))
            return events, backings

        streamed = []

        def mixed(emitter):
            for call in calls:
                steps, rows = _emit(emitter, *call)
                streamed.extend(rows)
                yield steps

        events, backings = drive(mixed)
        reference, _ = drive(lambda emitter: [emitter.emit_rows(streamed)])
        assert events == reference
        if all(method in ("emit_columns", "columns") for method, _, _ in calls):
            assert all(backings)

    def test_split_emit_calls_match_single_call(self):
        rows = [(i, float(i)) for i in range(11)]
        _, whole, sim_w = self.run_batched([("emit_rows", (rows,))])
        _, split, sim_s = self.run_batched(
            [("emit_rows", ([r],)) for r in rows]
        )
        assert split == whole
        assert repr(sim_s.now) == repr(sim_w.now)


class TestRowBatchSelect:
    def test_a_selection_over_a_selection_keeps_the_column_backing(self):
        parent = RowBatch.from_columns([(1, 2, 3, 4), (5, 6, 7, 8)]).select([1, 0, 1, 1], 3)
        view = parent.select([1, 1, 0], 2)
        assert view._columns is not None and view._rows is None
        assert parent._rows is None
        assert view.rows == ((1, 5), (3, 7))

    def test_a_selection_over_a_selection_keeps_the_row_backing(self):
        parent = RowBatch.from_rows(((1, 5), (2, 6), (3, 7)), 2).select([0, 1, 1], 2)
        view = parent.select([1, 0], 1)
        assert view._columns is None
        assert view.rows == ((2, 6),)
