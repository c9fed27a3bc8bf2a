"""Block nested-loop join stage (Section 5.3.1).

The right (inner) input is buffered in full — the "block" — and the
left (outer) input streams against it (:attr:`port_order` makes the
driver drain the inner port first). The join predicate is an arbitrary
compiled expression over the concatenated row, so non-equi joins work.
Cost is charged per (outer, inner) pair examined, which is what makes
NLJ expensive and fully pipelined on its outer input.
"""

from __future__ import annotations

from repro.engine.operators.api import BatchOperator
from repro.sim.events import Compute

__all__ = ["NestedLoopJoinOperator", "nlj_rows"]


def nlj_rows(left_rows, right_rows, predicate_fn):
    """Pure function: all concatenated pairs passing the predicate."""
    output = []
    for left in left_rows:
        for right in right_rows:
            combined = left + right
            if predicate_fn(combined):
                output.append(combined)
    return output


class NestedLoopJoinOperator(BatchOperator):
    ports = 2
    port_order = (1, 0)  # buffer the inner (right) input first

    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        self.predicate_fn = node.params["predicate"].compile(node.schema)
        self.inner: list[tuple] = []
        self.make_emitter(len(node.schema))

    def next_batch(self, batch, port):
        costs = self.ctx.costs
        if port == 1:
            yield Compute(costs.scan_tuple * 0.1 * len(batch))
            self.inner.extend(batch.rows)
            return
        yield Compute(costs.nlj_pair * len(batch) * max(len(self.inner), 1))
        joined = nlj_rows(batch.rows, self.inner, self.predicate_fn)
        if joined:
            yield Compute(costs.join_emit * len(joined))
            yield from self.emitter.emit_rows(joined)
