"""Merge join stage (Section 5.3.2).

Inner equality join of two inputs sorted ascending on their keys.
Both inputs are buffered before merging — a simplification that keeps
the cost accounting right (per-tuple merge cost) while reusing one
merge implementation for the staged and reference paths. Input
sortedness is verified (one batched ``itemgetter`` key-column pass per
side); violations indicate a malformed plan (a missing
:func:`repro.engine.plan.sort`).
"""

from __future__ import annotations

from operator import itemgetter

from repro.engine.operators.api import BatchOperator
from repro.errors import PlanError
from repro.sim.events import Compute

__all__ = ["MergeJoinOperator", "merge_join_rows"]


def _check_sorted(rows, index, side):
    keys = list(map(itemgetter(index), rows))
    for a, b in zip(keys, keys[1:]):
        if a > b:
            raise PlanError(
                f"merge join {side} input is not sorted on its key; "
                "insert a sort below the join"
            )


def merge_join_rows(left_rows, right_rows, left_index, right_index):
    """Pure function: sort-merge inner join of two sorted inputs."""
    _check_sorted(left_rows, left_index, "left")
    _check_sorted(right_rows, right_index, "right")
    output = []
    i = j = 0
    n_left, n_right = len(left_rows), len(right_rows)
    while i < n_left and j < n_right:
        lkey = left_rows[i][left_index]
        rkey = right_rows[j][right_index]
        if lkey < rkey:
            i += 1
        elif lkey > rkey:
            j += 1
        else:
            # Emit the cross product of the equal-key runs.
            j_end = j
            while j_end < n_right and right_rows[j_end][right_index] == lkey:
                j_end += 1
            while i < n_left and left_rows[i][left_index] == lkey:
                for jj in range(j, j_end):
                    output.append(left_rows[i] + right_rows[jj])
                i += 1
            j = j_end
    return output


class MergeJoinOperator(BatchOperator):
    ports = 2

    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        left_schema, right_schema = (child.schema for child in node.children)
        self.left_index = left_schema.index_of(node.params["left_key"])
        self.right_index = right_schema.index_of(node.params["right_key"])
        self.left_rows: list[tuple] = []
        self.right_rows: list[tuple] = []
        self.make_emitter(len(node.schema))

    def next_batch(self, batch, port):
        yield Compute(self.ctx.costs.sort_tuple * 0.2 * len(batch))
        (self.left_rows if port == 0 else self.right_rows).extend(batch.rows)

    def finish(self):
        costs = self.ctx.costs
        left_rows, right_rows = self.left_rows, self.right_rows
        yield Compute(costs.hash_probe * (len(left_rows) + len(right_rows)))
        joined = merge_join_rows(
            left_rows, right_rows, self.left_index, self.right_index
        )
        if joined:
            yield Compute(costs.join_emit * len(joined))
            yield from self.emitter.emit_rows(joined)
        yield from self.emitter.close()
