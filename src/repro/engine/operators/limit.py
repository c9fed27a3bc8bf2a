"""Limit stage: pass through the first N rows, then stop.

Early termination matters for the staged engine: once the quota is
reached the stage closes its consumers *and drains* its input (the
producer may already be blocked on a full queue; abandoning the queue
would deadlock the pipeline). Draining charges no compute — the
upstream work is wasted, as it is in any engine without limit
pushdown.
"""

from __future__ import annotations

from repro.engine.operators.api import BatchOperator
from repro.sim.events import Compute

__all__ = ["LimitOperator", "limit_rows"]


def limit_rows(rows, n):
    """Pure function: the first ``n`` rows."""
    return list(rows[:n])


class LimitOperator(BatchOperator):
    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        self.remaining = node.params["count"]
        self.make_emitter(len(node.schema))

    def next_batch(self, batch, port):
        if self.remaining > 0:
            n = len(batch)
            take = min(n, self.remaining)
            self.remaining -= take
            yield Compute(self.ctx.costs.project_tuple * take)
            if take == n:
                # Whole batch survives: forward it without re-rowing.
                yield from self.emitter.emit_batch(batch)
            else:
                yield from self.emitter.emit_rows(batch.rows[:take])
        # Keep draining after the quota so producers never deadlock on
        # full queues.
