"""Lowering a serial plan to a ``dop``-way parallel task graph.

:func:`find_region` locates the *parallel region* — the largest
subtree the builder knows how to fragment — by walking down from the
root through unary operators:

* a base ``scan`` parallelizes as range fragments + order-preserving
  gather (safe under any ancestor: the output order is exactly the
  serial scan's);
* a grouped ``aggregate`` over a scan chain parallelizes partition-
  wise: fragments → hash exchange on the group keys → ``dop``
  aggregates → ordered merge (output bit-identical to serial, see
  :mod:`repro.engine.parallel.exchange`);
* a ``hash_join`` whose both inputs are scan chains parallelizes
  partition-wise on the join keys, with a deterministic gather. The
  joined row *set* equals serial but its order differs, so this
  strategy is fenced off under order-sensitive ancestors (``limit``,
  ``sort`` — stable-sort tie order — and anything non-unary) and
  under ``aggregate`` ancestors (float accumulation order would
  shift the last ulp).

Under a memory broker the ``dop`` aggregates or joins split the
operator's budget: each asks for ``max(1, budget // dop)`` pages
(:func:`_fragment_pages`), so one instance cannot take the whole
``work_mem`` and leave its siblings spilling on one page each.

Everything above the region is built serially by the engine's own
``_build_subplan``, grafted onto the region's output queue exactly
like a sharing group grafts members onto the pivot.

Queue sizing is what buys actual overlap: queues entering a
sequential multi-port drain (gather inputs, exchange partition
outputs) are generously sized so producer fragments never block on a
consumer that is draining a sibling port first. Intra-fragment queues
keep the engine's bounded depth.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.operators import build_operator_task
from repro.engine.operators.aggregate import AggregateOperator, _sort_key
from repro.engine.operators.api import drive
from repro.engine.operators.hash_join import HashJoinOperator
from repro.engine.operators.scan import ScanOperator, fused_memo
from repro.engine.parallel.exchange import ExchangeOperator, GatherOperator, ordered_merge
from repro.engine.parallel.fragment import partition_ranges
from repro.engine.plan import PlanNode
from repro.engine.stage import BatchEmitter
from repro.sim.queues import SimQueue

__all__ = ["FRAGMENT_QUEUE_CAPACITY", "find_region", "build_parallel_query"]

# Queues crossing the fragment/consumer boundary are drained port by
# port; a generous bound lets every producer fragment run to
# completion without blocking on the drain order. (The simulator
# exchanges batches, so this is a host-memory allowance, not a model
# cost — the per-page output costs are charged by the emitters as
# usual.)
FRAGMENT_QUEUE_CAPACITY = 1 << 20

_STREAMING = frozenset({"filter", "project"})
_UNARY = frozenset({"filter", "project", "sort", "aggregate", "limit"})


def _scan_leaf(node: PlanNode) -> Optional[PlanNode]:
    """The scan under a pure streaming chain, else ``None``."""
    while node.kind in _STREAMING:
        node = node.children[0]
    return node if node.kind == "scan" else None


def find_region(plan: PlanNode) -> Optional[tuple[PlanNode, str]]:
    """Locate the parallel region: ``(node, strategy)`` or ``None``.

    ``order_ok`` clears under a ``limit`` ancestor (a reordered row
    set would change *which* rows survive) and under a ``sort``
    ancestor (a stable sort's tie order exposes its input order);
    ``fold_ok`` clears under an ``aggregate`` ancestor (a reordered
    row set would change floating-point accumulation order). The scan
    and partition-wise aggregate strategies ignore both flags — their
    output is exactly the serial stream.
    """
    node = plan
    order_ok = True
    fold_ok = True
    while True:
        kind = node.kind
        if kind == "scan":
            return node, "scan"
        if (
            kind == "aggregate"
            and node.params["group_by"]
            and _scan_leaf(node.children[0]) is not None
        ):
            return node, "aggregate"
        if (
            kind == "hash_join"
            and order_ok
            and fold_ok
            and all(_scan_leaf(child) is not None for child in node.children)
        ):
            return node, "hash_join"
        if kind not in _UNARY:
            return None
        if kind in ("limit", "sort"):
            order_ok = False
        elif kind == "aggregate":
            fold_ok = False
        node = node.children[0]


def _fragment_pages(region: PlanNode, dop: int, ctx) -> Optional[int]:
    """The grant each of a partitioned operator's ``dop`` instances asks
    for: an equal share of the node's ``mem_pages`` (else ``work_mem``),
    at least one page. ``None`` on an ungoverned engine."""
    if ctx.memory is None:
        return None
    budget = region.params.get("mem_pages") or ctx.memory.work_mem
    return max(1, budget // dop)


def _build_fragment_chains(engine, group, chain_root, scan_node, dop, prefix, ctx):
    """Per-fragment pipelines (range scan + streaming chain clones).

    Returns one output queue per fragment, sized for deferred draining
    (the caller's gather or exchange consumer reads them in fragment
    order).
    """
    table = ctx.catalog.table(scan_node.params["table"])
    ranges = partition_ranges(table.page_count(ctx.page_rows), dop)
    # One attach for the scan node, not one per fragment: a dop-N scan
    # run once leaves a ghost, as a serial one does.
    memo = fused_memo(table, scan_node, ctx)
    chain = []
    node = chain_root
    while node.op_id != scan_node.op_id:
        chain.append(node)
        node = node.children[0]
    chain.reverse()
    outs = []
    for index, (lo, hi) in enumerate(ranges):
        fprefix = f"{prefix}.f{index}"
        capacity = engine.queue_capacity if chain else FRAGMENT_QUEUE_CAPACITY
        queue = engine.sim.queue(f"{fprefix}:{scan_node.op_id}->out0", capacity)
        engine._spawn_stage(
            group,
            drive(ScanOperator(scan_node, ctx, [queue], pages=(lo, hi), memo=memo), []),
            fprefix,
            scan_node.op_id,
        )
        for depth, stage_node in enumerate(chain):
            capacity = (
                engine.queue_capacity
                if depth < len(chain) - 1
                else FRAGMENT_QUEUE_CAPACITY
            )
            out_q = engine.sim.queue(
                f"{fprefix}:{stage_node.op_id}->out0", capacity
            )
            engine._spawn_stage(
                group,
                build_operator_task(stage_node, [queue], [out_q], ctx),
                fprefix,
                stage_node.op_id,
            )
            queue = out_q
        outs.append(queue)
    return outs


def _build_exchanges(engine, group, child, frag_qs, key_idx, dop, prefix, region_op_id, ctx):
    """One exchange per fragment; returns queues[consumer][producer]."""
    partition_qs: list[list[SimQueue]] = [[] for _ in range(dop)]
    memo = engine.exchange_memo(dop)
    for index, frag_q in enumerate(frag_qs):
        outs = [
            engine.sim.queue(
                f"{prefix}.f{index}:{region_op_id}.x->p{j}",
                FRAGMENT_QUEUE_CAPACITY,
            )
            for j in range(dop)
        ]
        exchange = ExchangeOperator(child, ctx, outs, key_idx, memo)
        engine._spawn_stage(
            group, drive(exchange, [[frag_q]]), f"{prefix}.f{index}", f"{region_op_id}.exchange"
        )
        for j in range(dop):
            partition_qs[j].append(outs[j])
    return partition_qs


def _build_scan_gather(engine, group, scan_node, dop, prefix, ctx):
    frag_qs = _build_fragment_chains(engine, group, scan_node, scan_node, dop, prefix, ctx)
    out_q = engine.sim.queue(
        f"{prefix}:{scan_node.op_id}.gather->out0", engine.queue_capacity
    )
    gather = GatherOperator(scan_node, ctx, [out_q])
    engine._spawn_stage(group, drive(gather, [frag_qs]), prefix, f"{scan_node.op_id}.gather")
    return out_q


def _build_partition_aggregate(engine, group, region, dop, prefix, ctx):
    child = region.children[0]
    scan_node = _scan_leaf(child)
    frag_qs = _build_fragment_chains(engine, group, child, scan_node, dop, prefix, ctx)
    key_idx = [child.schema.index_of(name) for name in region.params["group_by"]]
    partition_qs = _build_exchanges(
        engine, group, child, frag_qs, key_idx, dop, prefix, region.op_id, ctx
    )
    agg_qs = []
    pages = _fragment_pages(region, dop, ctx)
    for j in range(dop):
        out_q = engine.sim.queue(
            f"{prefix}.p{j}:{region.op_id}->out0", engine.queue_capacity
        )
        aggregate = AggregateOperator(region, ctx, [out_q], pages)
        engine._spawn_stage(
            group, drive(aggregate, [partition_qs[j]]), f"{prefix}.p{j}", region.op_id
        )
        agg_qs.append(out_q)
    key_width = len(region.params["group_by"])
    out_q = engine.sim.queue(
        f"{prefix}:{region.op_id}.merge->out0", engine.queue_capacity
    )
    emitter = BatchEmitter(
        [out_q],
        ctx.page_rows,
        ctx.costs,
        width=len(region.schema),
        op=f"{region.op_id}.merge",
        perf=ctx.perf,
    )
    merge = ordered_merge(
        agg_qs,
        emitter,
        lambda row: _sort_key(row[:key_width]),
        ctx.costs.sort_tuple,
    )
    engine._spawn_stage(group, merge, prefix, f"{region.op_id}.merge")
    return out_q


def _build_partition_join(engine, group, region, dop, prefix, ctx):
    build_child, probe_child = region.children
    sides = []
    for tag, child, key_name in (
        ("b", build_child, region.params["build_key"]),
        ("pr", probe_child, region.params["probe_key"]),
    ):
        scan_node = _scan_leaf(child)
        frag_qs = _build_fragment_chains(
            engine, group, child, scan_node, dop, f"{prefix}.{tag}", ctx
        )
        key_idx = [child.schema.index_of(key_name)]
        sides.append(
            _build_exchanges(
                engine, group, child, frag_qs, key_idx, dop, f"{prefix}.{tag}", region.op_id, ctx
            )
        )
    build_parts, probe_parts = sides
    join_qs = []
    pages = _fragment_pages(region, dop, ctx)
    for j in range(dop):
        out_q = engine.sim.queue(
            f"{prefix}.p{j}:{region.op_id}->out0", FRAGMENT_QUEUE_CAPACITY
        )
        join = HashJoinOperator(region, ctx, [out_q], pages)
        engine._spawn_stage(
            group, drive(join, [build_parts[j], probe_parts[j]]), f"{prefix}.p{j}", region.op_id
        )
        join_qs.append(out_q)
    out_q = engine.sim.queue(
        f"{prefix}:{region.op_id}.gather->out0", engine.queue_capacity
    )
    gather = GatherOperator(region, ctx, [out_q])
    engine._spawn_stage(group, drive(gather, [join_qs]), prefix, f"{region.op_id}.gather")
    return out_q


def build_parallel_query(engine, plan, dop, prefix, ctx, group):
    """Spawn the parallel task graph as ``group``'s stage tasks;
    returns the root output queue.

    ``None`` when the plan has no parallelizable region (nothing is
    spawned) — the caller falls back to serial execution.
    """
    found = find_region(plan)
    if found is None:
        return None
    region, strategy = found
    if strategy == "scan":
        region_q = _build_scan_gather(engine, group, region, dop, prefix, ctx)
    elif strategy == "aggregate":
        region_q = _build_partition_aggregate(engine, group, region, dop, prefix, ctx)
    else:
        region_q = _build_partition_join(engine, group, region, dop, prefix, ctx)
    if region.op_id == plan.op_id:
        return region_q
    (root_q,) = engine._build_subplan(
        plan, 1, prefix, group, ctx, substitutions={region.op_id: region_q}
    )
    return root_q
