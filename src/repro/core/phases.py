"""Stop-&-go decomposition of query plans (Section 5.2).

A stop-&-go (blocking) operator — a sort, or the build side of a hash
join — decouples the production/consumption rates below it from those
above it. For modeling purposes the paper splits such a query into a
sequence of *phases*, each of which is a fully pipelined sub-query that
the Section-4 model can handle:

* a **consume** phase whose root is the blocking operator absorbing its
  input ("sorting runs" — a moderately slow root node),
* optionally an **internal** phase that does not interact with the rest
  of the system ("merging runs"),
* the remaining plan, where the blocking operator is replaced by a leaf
  that replays the materialized result ("an extremely fast scan").

Work sharing applies *within* a phase: during the consume phase the
blocking operator's inputs can be shared; during the replay phase its
output can be shared. Phases of one query execute strictly in
sequence, so a query's response time is the sum of its phase times —
:class:`PhasedQuery` captures this for end-to-end estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import metrics
from repro.core.contention import ContentionLike
from repro.core.model import shared_rate, unshared_rate
from repro.core.spec import OperatorSpec, QuerySpec, op, sharers
from repro.errors import SpecError

__all__ = ["Phase", "decompose", "PhasedQuery"]

PHASE_PIPELINE = "pipeline"
PHASE_INTERNAL = "internal"


@dataclass(frozen=True)
class Phase:
    """One fully pipelined phase of a decomposed query.

    Attributes
    ----------
    query:
        The pipelined :class:`QuerySpec` modeling this phase.
    kind:
        ``"pipeline"`` for phases that stream tuples between operators,
        ``"internal"`` for non-interacting work (e.g. merging runs).
    source:
        Name of the blocking operator that produced this phase, or
        ``None`` for the final phase of the original plan.
    volume:
        Units of forward progress this phase must complete, relative to
        the query's reference stream. Used to combine phase durations.
    """

    query: QuerySpec
    kind: str
    source: str | None
    volume: float = 1.0


def _innermost_blocking(root: OperatorSpec) -> OperatorSpec | None:
    """Find a blocking node none of whose descendants are blocking.

    Uses pre-order position for determinism when several qualify.
    """
    for node in root.walk():
        if node.blocking and not any(
            child_desc.blocking
            for child in node.children
            for child_desc in child.walk()
        ):
            return node
    return None


def _replace(root: OperatorSpec, target: OperatorSpec, leaf: OperatorSpec) -> OperatorSpec:
    """Rebuild the tree with ``target`` (by identity) replaced by ``leaf``."""
    if root is target:
        return leaf
    if not root.children:
        return root
    new_children = tuple(_replace(child, target, leaf) for child in root.children)
    if all(a is b for a, b in zip(new_children, root.children)):
        return root
    return root.with_children(new_children)


def decompose(query: QuerySpec, volume: float = 1.0) -> list[Phase]:
    """Split a plan with stop-&-go operators into pipelined phases.

    Blocking operators are processed innermost-first: each contributes
    a consume phase (its input sub-plan with the blocking node as a
    non-emitting root), an optional internal phase, and is then
    replaced in the remaining plan by a replay leaf with the operator's
    ``emit_work``. A fully pipelined query decomposes to a single
    phase equal to itself.
    """
    if volume <= 0:
        raise SpecError(f"phase volume must be > 0, got {volume!r}")
    phases: list[Phase] = []
    root = query.root
    counter = 0
    while True:
        blocker = _innermost_blocking(root)
        if blocker is None:
            break
        counter += 1
        consume_root = op(
            f"{blocker.name}#consume",
            blocker.work,
            0.0,
            *blocker.children,
        )
        phases.append(
            Phase(
                query=QuerySpec(
                    root=consume_root,
                    label=f"{query.label}/{blocker.name}#consume",
                ),
                kind=PHASE_PIPELINE,
                source=blocker.name,
                volume=volume,
            )
        )
        if blocker.internal_work > 0:
            internal_root = op(f"{blocker.name}#internal", blocker.internal_work)
            phases.append(
                Phase(
                    query=QuerySpec(
                        root=internal_root,
                        label=f"{query.label}/{blocker.name}#internal",
                    ),
                    kind=PHASE_INTERNAL,
                    source=blocker.name,
                    volume=volume,
                )
            )
        replay_leaf = op(
            f"{blocker.name}#replay",
            blocker.emit_work,
            blocker.output_cost,
        )
        root = _replace(root, blocker, replay_leaf)
    phases.append(
        Phase(
            query=QuerySpec(root=root, label=f"{query.label}/final"),
            kind=PHASE_PIPELINE,
            source=None,
            volume=volume,
        )
    )
    return phases


@dataclass(frozen=True)
class PhasedQuery:
    """End-to-end model of a stop-&-go query as sequential phases.

    The per-phase rates come from the Section-4 model; response time is
    the sum over phases of ``volume / per-query-rate``. Sharing is
    evaluated per phase: a pivot below the blocking operator shares
    during the consume phase, a pivot above it shares during the final
    phase (Section 5.2's observation that inputs can be shared only
    until the stop-&-go completes, and outputs only afterwards).
    """

    query: QuerySpec
    phases: tuple[Phase, ...] = field(init=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(decompose(self.query)))

    def unshared_time(
        self, m: int, n: float, contention: ContentionLike = None
    ) -> float:
        """Average response time of ``m`` independent copies on ``n``
        processors (time for the group to complete one query each)."""
        if m < 1:
            raise SpecError(f"m must be >= 1, got {m}")
        total = 0.0
        for phase in self.phases:
            if metrics.total_work(phase.query) == 0:
                continue  # free phases (e.g. zero-cost replays) take no time
            rate = unshared_rate(sharers(phase.query, m), n, contention)
            total += m * phase.volume / rate
        return total

    def _base_name(self, name: str) -> str:
        """Strip the ``#consume``/``#internal``/``#replay`` suffixes
        decomposition adds, recovering the original operator name."""
        return name.split("#", 1)[0]

    def _phase_fully_below(self, phase: Phase, pivot_name: str) -> bool:
        """True if every operator of the phase derives from the subtree
        strictly below the pivot (plus blocking nodes inside it)."""
        pivot = self.query.pivot(pivot_name)
        below = {node.name for node in pivot.walk()} - {pivot_name}
        return all(
            self._base_name(name) in below
            for name in phase.query.operator_names()
        )

    def shared_time(
        self,
        pivot_name: str,
        m: int,
        n: float,
        contention: ContentionLike = None,
    ) -> float:
        """Response time of ``m`` copies sharing at ``pivot_name``.

        Three phase classes (Sections 4.3 + 5.2 combined):

        * phases **fully below** the pivot (e.g. the consume phase of a
          stop-&-go operator inside the shared subtree) execute once
          for the whole group — their work is eliminated for m-1
          members;
        * the phase **containing** the pivot uses the Section 4.3
          shared-execution model (pivot multiplexing to m consumers);
        * phases **above** the pivot run as m independent copies.
        """
        if m < 1:
            raise SpecError(f"m must be >= 1, got {m}")
        total = 0.0
        for phase in self.phases:
            if metrics.total_work(phase.query) == 0:
                continue  # free phases (e.g. zero-cost replays) take no time
            if pivot_name in phase.query:
                rate = shared_rate(sharers(phase.query, m), pivot_name, n, contention)
                total += m * phase.volume / rate
            elif self._phase_fully_below(phase, pivot_name):
                # One execution serves the whole group.
                rate = unshared_rate([phase.query], n, contention)
                total += phase.volume / rate
            else:
                rate = unshared_rate(sharers(phase.query, m), n, contention)
                total += m * phase.volume / rate
        return total

    def sharing_benefit(
        self,
        pivot_name: str,
        m: int,
        n: float,
        contention: ContentionLike = None,
    ) -> float:
        """End-to-end ``Z(m, n)`` for a stop-&-go query: the ratio of
        unshared to shared response time (rates are reciprocal times
        for a fixed amount of work)."""
        return self.unshared_time(m, n, contention) / self.shared_time(
            pivot_name, m, n, contention
        )

    def total_work(self) -> float:
        """Total work per unit of forward progress over all phases."""
        return sum(
            metrics.total_work(phase.query) * phase.volume for phase in self.phases
        )

