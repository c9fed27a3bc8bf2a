"""Projection stage: computes output columns from input rows.

Each output expression is batch-compiled against the input's NOT NULL
set (:func:`~repro.engine.plan.not_null`) and evaluated
column-at-a-time over the input batch's columns — a bare column passes
its input column through — so the stage builds the output batch
directly in columnar form.
"""

from __future__ import annotations

from repro.engine.expressions import compile_output
from repro.engine.operators.api import BatchOperator
from repro.engine.packet import RowBatch
from repro.engine.plan import not_null
from repro.sim.events import Compute

__all__ = ["ProjectOperator", "project_rows"]


def project_rows(rows, output_fns):
    """Pure function: apply each compiled output expression per row."""
    return [tuple(fn(row) for fn in output_fns) for row in rows]


class ProjectOperator(BatchOperator):
    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        child = node.children[0]
        notnull = not_null(child, ctx.catalog)
        outputs = node.params["outputs"]
        self.outs = [compile_output(expr, child.schema, notnull) for _, expr, _ in outputs]
        self.make_emitter(len(node.schema))

    def next_batch(self, batch, port):
        n = len(batch)
        yield Compute(self.ctx.costs.project_tuple * n * len(self.outs))
        cols = batch.columns
        columns = [cols[out] if type(out) is int else out(cols, n) for out in self.outs]
        yield from self.emitter.emit_batch(RowBatch.from_columns(columns, n))
