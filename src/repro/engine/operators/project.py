"""Projection stage: computes output columns from input rows.

Each output expression is batch-compiled and evaluated
column-at-a-time over the input batch's columns; the stage builds the
output batch directly in columnar form.
"""

from __future__ import annotations

from repro.engine.expressions import compile_batch
from repro.engine.operators.api import BatchOperator
from repro.engine.packet import RowBatch
from repro.sim.events import Compute

__all__ = ["ProjectOperator", "project_rows"]


def project_rows(rows, output_fns):
    """Pure function: apply each compiled output expression per row."""
    return [tuple(fn(row) for fn in output_fns) for row in rows]


class ProjectOperator(BatchOperator):
    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        schema = node.children[0].schema
        outputs = node.params["outputs"]
        self.batch_fns = [compile_batch(expr, schema) for _, expr, _ in outputs]
        self.make_emitter(len(node.schema))

    def next_batch(self, batch, port):
        n = len(batch)
        yield Compute(self.ctx.costs.project_tuple * n * len(self.batch_fns))
        cols = batch.columns
        out = RowBatch.from_columns([fn(cols, n) for fn in self.batch_fns], n)
        yield from self.emitter.emit_batch(out)
