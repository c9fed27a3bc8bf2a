"""Model-level query plan specifications (Table 1 of the paper).

The analytical model of Section 4 sees a query as a tree of operators,
each characterized by two scalars measured *per unit of forward
progress* of the whole query:

``work`` (the paper's *w*)
    CPU work the operator spends consuming its inputs and doing its own
    processing, per unit of forward progress.

``output_cost`` (the paper's *s*)
    CPU work the operator spends handing one unit of forward progress
    to **each** consumer. An operator with one consumer pays
    ``output_cost`` once per unit; a shared pivot with *M* consumers
    pays ``M * output_cost`` per unit — this is the serialization
    penalty at the heart of the paper.

"Forward progress" normalizes all streams in a plan to the completion
of one reference tuple stream, which implicitly captures selectivities
(Section 4.1.1); the model therefore never needs tuple counts.

:class:`OperatorSpec` nodes are immutable; :class:`QuerySpec` wraps a
root node, validates the tree, and offers navigation helpers (lookup by
name, below/above a pivot) used by :mod:`repro.core.model`. What those
helpers and the model read off a tree is derived once per root
(:class:`PlanFacts`) and shared by the relabelled twins that make up a
prospective sharing group (:func:`sharers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator

from repro.errors import PivotError, SpecError

__all__ = ["OperatorSpec", "PlanFacts", "QuerySpec", "op", "chain", "sharers"]


@dataclass(frozen=True)
class OperatorSpec:
    """One operator in a model-level plan tree.

    Parameters
    ----------
    name:
        Identifier, unique within a query plan. The sharing pivot is
        referenced by this name.
    work:
        *w* — work per unit of forward progress spent on inputs and
        internal processing. Must be finite and non-negative.
    output_cost:
        *s* — work per unit of forward progress per consumer. Must be
        finite and non-negative. The root's consumer is the client, so
        its ``output_cost`` still counts once toward its *p*.
    children:
        Input operators (producers feeding this one). A scan has no
        children; a join has two.
    blocking:
        True for stop-&-go operators (sort, hash build). Blocking
        operators decouple the pipeline and are handled by
        :mod:`repro.core.phases`; the plain Section-4 model requires a
        fully pipelined plan (no blocking nodes).
    internal_work:
        For blocking operators only: work of the middle, non-interacting
        phase (e.g. merging sorted runs), per unit of forward progress.
        Section 5.2 models it as a sub-query "that does not interact
        with the system".
    emit_work:
        For blocking operators only: *w* of the leaf that replays the
        materialized result in the following phase (e.g. scanning the
        sorted output — "an extremely fast scan", Section 5.2).
    """

    name: str
    work: float
    output_cost: float = 0.0
    children: tuple["OperatorSpec", ...] = ()
    blocking: bool = False
    internal_work: float = 0.0
    emit_work: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("operator name must be non-empty")
        if not self.blocking and (self.internal_work or self.emit_work):
            raise SpecError(
                f"operator {self.name!r}: internal_work/emit_work are only "
                "meaningful for blocking (stop-&-go) operators"
            )
        for label, value in (
            ("work", self.work),
            ("output_cost", self.output_cost),
            ("internal_work", self.internal_work),
            ("emit_work", self.emit_work),
        ):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SpecError(f"{label} must be a number, got {value!r}")
            if not math.isfinite(value) or value < 0:
                raise SpecError(
                    f"operator {self.name!r}: {label} must be finite and >= 0, "
                    f"got {value!r}"
                )
        if not isinstance(self.children, tuple):
            # Accept any iterable at construction for convenience.
            object.__setattr__(self, "children", tuple(self.children))
        for child in self.children:
            if not isinstance(child, OperatorSpec):
                raise SpecError(
                    f"operator {self.name!r}: child {child!r} is not an OperatorSpec"
                )

    def p(self, consumers: int = 1) -> float:
        """Total work per unit of forward progress (the paper's *p*).

        ``p = w + s * consumers`` — Section 4.1.1 with the output sum
        expanded for ``consumers`` identical output streams.
        """
        if consumers < 0:
            raise SpecError(f"consumers must be >= 0, got {consumers}")
        return self.work + self.output_cost * consumers

    def walk(self) -> Iterator["OperatorSpec"]:
        """Yield this operator and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def structurally_equal(self, other: "OperatorSpec") -> bool:
        """True if two subtrees describe the same operation.

        Sharing requires the merged packets to request identical work;
        the model enforces it by comparing names, costs and shape of
        the subtrees below the pivot. A node is trivially equal to
        itself: nodes are immutable, so identity settles it without
        descending.
        """
        if self is other:
            return True
        if (
            self.name != other.name
            or self.work != other.work
            or self.output_cost != other.output_cost
            or self.blocking != other.blocking
            or self.internal_work != other.internal_work
            or self.emit_work != other.emit_work
            or len(self.children) != len(other.children)
        ):
            return False
        return all(
            a.structurally_equal(b) for a, b in zip(self.children, other.children)
        )

    def relabeled(self, name: str) -> "OperatorSpec":
        """Return a copy of this node (same children) with a new name."""
        return OperatorSpec(
            name=name,
            work=self.work,
            output_cost=self.output_cost,
            children=self.children,
            blocking=self.blocking,
            internal_work=self.internal_work,
            emit_work=self.emit_work,
        )

    def with_children(self, children: tuple["OperatorSpec", ...]) -> "OperatorSpec":
        """Return a copy of this node with a different input list."""
        return OperatorSpec(
            name=self.name,
            work=self.work,
            output_cost=self.output_cost,
            children=children,
            blocking=self.blocking,
            internal_work=self.internal_work,
            emit_work=self.emit_work,
        )


def op(
    name: str,
    work: float,
    output_cost: float = 0.0,
    *children: OperatorSpec,
    blocking: bool = False,
    internal_work: float = 0.0,
    emit_work: float = 0.0,
) -> OperatorSpec:
    """Shorthand constructor for :class:`OperatorSpec`."""
    return OperatorSpec(
        name=name,
        work=work,
        output_cost=output_cost,
        children=tuple(children),
        blocking=blocking,
        internal_work=internal_work,
        emit_work=emit_work,
    )


def chain(*ops_bottom_up: OperatorSpec) -> OperatorSpec:
    """Link operators into a linear pipeline, bottom-up.

    ``chain(scan, filter, agg)`` returns the aggregation root with the
    filter as its child and the scan below that. Existing children of
    the non-leaf arguments must be empty (use explicit trees for bushy
    plans).
    """
    if not ops_bottom_up:
        raise SpecError("chain() requires at least one operator")
    current = ops_bottom_up[0]
    for node in ops_bottom_up[1:]:
        if node.children:
            raise SpecError(
                f"chain(): operator {node.name!r} already has children; "
                "build bushy plans explicitly"
            )
        current = node.with_children((current,))
    return current


class PlanFacts:
    """What the model derives from one operator tree, each at most once.

    Every quantity here is a pure function of the tree, and the tree
    cannot change (see :class:`QuerySpec`), so it is computed on first
    use and kept: the pre-order operator tuple, the name index, the
    stop-&-go operators, ``p_max`` and ``total_work`` (Section 4.1,
    meaningful for pipelined plans — :mod:`repro.core.metrics` guards
    them), and the below/above split at each pivot asked about. All
    :meth:`QuerySpec.relabeled` twins of a query hold the *same*
    ``PlanFacts`` object, which is also how the model recognises them
    as one plan submitted several times. Read it; never write to it.
    """

    def __init__(
        self, operators: tuple[OperatorSpec, ...], by_name: dict[str, OperatorSpec]
    ) -> None:
        self.operators = operators
        self.by_name = by_name
        self.blocking = tuple(node for node in operators if node.blocking)
        self._splits: dict[str, tuple[tuple, tuple]] = {}

    @cached_property
    def p_max(self) -> float:
        return max(node.p(1) for node in self.operators)

    @cached_property
    def total_work(self) -> float:
        return sum(node.p(1) for node in self.operators)

    def split(self, pivot_name: str) -> tuple[tuple, tuple]:
        """``(below, above)`` the named pivot, both pre-order: the
        shared subtree strictly below it and the operators private to
        each sharer (everything outside the pivot's subtree)."""
        split = self._splits.get(pivot_name)
        if split is None:
            subtree = tuple(self.by_name[pivot_name].walk())
            shared = {id(node) for node in subtree}
            above = tuple(node for node in self.operators if id(node) not in shared)
            split = self._splits[pivot_name] = (subtree[1:], above)
        return split


@dataclass(frozen=True)
class QuerySpec:
    """A validated model-level query plan.

    Wraps the root :class:`OperatorSpec` and a label. Operator names
    must be unique within the plan so a pivot can be addressed
    unambiguously.

    **Immutable, and relied upon to be.** The dataclass is frozen over
    frozen :class:`OperatorSpec` nodes whose ``children`` are tuples,
    so once constructed neither the tree nor any cost in it can change.
    That is the whole correctness argument for :attr:`facts`: the
    plan's derived quantities are computed once per *root*, never
    invalidated, and shared by every :meth:`relabeled` twin — pricing
    a group of m sharers costs one plan's worth of work, not m. Code
    that needs a different tree builds a new ``QuerySpec`` (as
    :meth:`with_extra_work` and ``dataclasses.replace`` do), which
    validates and derives afresh.
    """

    root: OperatorSpec
    label: str = "query"
    facts: PlanFacts = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.root, OperatorSpec):
            raise SpecError(f"root must be an OperatorSpec, got {self.root!r}")
        operators = tuple(self.root.walk())
        by_name: dict[str, OperatorSpec] = {}
        for node in operators:
            if node.name in by_name:
                raise SpecError(
                    f"duplicate operator name {node.name!r} in query {self.label!r}"
                )
            by_name[node.name] = node
        object.__setattr__(self, "facts", PlanFacts(operators, by_name))

    # -- navigation ------------------------------------------------------

    def operators(self) -> tuple[OperatorSpec, ...]:
        """All operators in the plan, pre-order from the root."""
        return self.facts.operators

    def operator_names(self) -> tuple[str, ...]:
        return tuple(node.name for node in self.facts.operators)

    def __contains__(self, name: str) -> bool:
        return name in self.facts.by_name

    def __getitem__(self, name: str) -> OperatorSpec:
        try:
            return self.facts.by_name[name]
        except KeyError:
            raise PivotError(
                f"operator {name!r} not found in query {self.label!r}; "
                f"available: {sorted(self.facts.by_name)}"
            ) from None

    def pivot(self, name: str) -> OperatorSpec:
        """Return the pivot operator, validating it exists."""
        return self[name]

    def below(self, pivot_name: str) -> tuple[OperatorSpec, ...]:
        """Operators strictly below the pivot (the shared subtree)."""
        self[pivot_name]  # a missing pivot is a PivotError naming this query
        return self.facts.split(pivot_name)[0]

    def above(self, pivot_name: str) -> tuple[OperatorSpec, ...]:
        """Operators strictly above the pivot (private to each sharer)."""
        self[pivot_name]
        return self.facts.split(pivot_name)[1]

    # -- properties ------------------------------------------------------

    def is_pipelined(self) -> bool:
        """True if no operator is a stop-&-go (blocking) operator."""
        return not self.facts.blocking

    def blocking_operators(self) -> tuple[OperatorSpec, ...]:
        return self.facts.blocking

    def relabeled(self, label: str) -> "QuerySpec":
        """A twin of this query under another label: the same root and
        the same :attr:`facts` object — nothing is walked or validated
        again, because nothing about the tree can have changed."""
        twin = object.__new__(QuerySpec)
        object.__setattr__(twin, "root", self.root)
        object.__setattr__(twin, "label", label)
        object.__setattr__(twin, "facts", self.facts)
        return twin

    def with_extra_work(self, name: str, extra: float) -> "QuerySpec":
        """A new query whose operator ``name`` has ``extra`` added to
        its ``work`` (this one when ``extra`` is zero). Only the path
        from the root to that operator is rebuilt; every other subtree
        is reused as it is."""
        if not extra:
            return self
        target = self[name]

        def rebuild(node: OperatorSpec) -> OperatorSpec:
            if node is target:
                return replace(node, work=node.work + extra)
            children = tuple(rebuild(child) for child in node.children)
            if all(new is old for new, old in zip(children, node.children)):
                return node
            return node.with_children(children)

        return QuerySpec(root=rebuild(self.root), label=self.label)

    def require_pipelined(self, context: str) -> None:
        """Raise :class:`SpecError` if the plan has blocking operators.

        The Section-4 model assumes fully pipelinable plans; callers
        that cannot handle stop-&-go nodes use this guard and direct
        users to :mod:`repro.core.phases`.
        """
        blockers = self.facts.blocking
        if blockers:
            names = ", ".join(node.name for node in blockers)
            raise SpecError(
                f"{context}: query {self.label!r} contains stop-&-go operators "
                f"({names}); decompose it with repro.core.phases.decompose() first"
            )


def sharers(query: QuerySpec, m: int, name: str | None = None) -> list[QuerySpec]:
    """``m`` sharers of one query: its twins ``name#0 … name#(m-1)``
    (``name`` defaults to the query's label). The prospective group a
    sharing decision prices; see :meth:`QuerySpec.relabeled` for why
    building it costs nothing per member beyond the label."""
    if name is None:
        name = query.label
    return [query.relabeled(f"{name}#{i}") for i in range(m)]
