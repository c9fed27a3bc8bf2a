"""Row filter stage: evaluates a predicate, drops non-matching rows.

The predicate runs once per batch as a compiled comprehension
producing a selection vector — compiled against the input's NOT NULL
set (:func:`~repro.engine.plan.not_null`) when the stage is built —
and the surviving rows flow on as a zero-copy selection view of the
input batch.
"""

from __future__ import annotations

from repro.engine.expressions import compile_predicate
from repro.engine.operators.api import BatchOperator
from repro.engine.plan import not_null
from repro.sim.events import Compute

__all__ = ["FilterOperator", "filter_rows"]


def filter_rows(rows, predicate_fn):
    """Pure function: rows passing the compiled predicate."""
    return [row for row in rows if predicate_fn(row)]


class FilterOperator(BatchOperator):
    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        child = node.children[0]
        predicate = node.params["predicate"]
        self.batch_pred = compile_predicate(predicate, child.schema, not_null(child, ctx.catalog))
        self.cost_factor = node.params.get("cost_factor", 1.0)
        self.make_emitter(len(node.schema))

    def next_batch(self, batch, port):
        n = len(batch)
        yield Compute(self.ctx.costs.filter_tuple * self.cost_factor * n)
        flags = self.batch_pred(batch.columns, n)
        kept = flags.count(True)
        if kept:
            yield from self.emitter.emit_batch(batch.select(flags, kept))
