"""Binary share/don't-share decisions (Section 8).

:class:`ShareAdvisor` wraps the analytical model behind the interface a
database engine needs at runtime: *"this query could join that sharing
group — should it?"*. The paper integrates exactly this decision into
Cordoba; queries join a group only when the model predicts a benefit,
otherwise the next group is tried, and failing all groups the query
runs independently (Section 8.1).

The advisor is deliberately stateless about the engine: it sees model
specs and processor counts and returns predictions, so the same object
serves offline (multi-query-optimizer style) and online use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.closed_system import unshared_rate_closed
from repro.core.contention import ContentionLike, resolve
from repro.core.model import shared_rate, unshared_rate
from repro.core.spec import QuerySpec, sharers
from repro.errors import SpecError

__all__ = ["ShareDecision", "ShareAdvisor", "GroupPartitioning"]


@dataclass(frozen=True)
class GroupPartitioning:
    """A Section 8.1 arrangement: k groups of g sharers on n/k CPUs."""

    group_size: int
    n_groups: int
    processors_per_group: float
    predicted_rate: float


@dataclass(frozen=True)
class ShareDecision:
    """The advisor's verdict for one candidate group.

    ``benefit`` is the predicted ``Z(m, n)``; ``share`` is simply
    ``benefit > threshold``. The rates are exposed for logging and for
    the experiments that validate the model against measurements.
    """

    share: bool
    benefit: float
    shared_rate: float
    unshared_rate: float
    group_size: int
    processors: float

    def __bool__(self) -> bool:
        return self.share


class ShareAdvisor:
    """Model-guided sharing oracle for a machine with ``n`` processors.

    Parameters
    ----------
    processors:
        Hardware contexts available to the candidate group.
    contention:
        Optional contention model (see :mod:`repro.core.contention`).
    threshold:
        Minimum predicted ``Z`` to recommend sharing. The paper uses a
        strict win (``Z > 1``); a threshold slightly above 1 trades a
        little predicted benefit for robustness to model error.
    closed_system:
        Use the Section 5.1 closed-system unshared baseline for groups
        with mismatched peak rates.
    """

    def __init__(
        self,
        processors: float,
        contention: ContentionLike = None,
        threshold: float = 1.0,
        closed_system: bool = True,
    ) -> None:
        if processors <= 0:
            raise SpecError(f"processors must be > 0, got {processors!r}")
        if threshold <= 0:
            raise SpecError(f"threshold must be > 0, got {threshold!r}")
        self.processors = float(processors)
        self.contention = resolve(contention)
        self.threshold = float(threshold)
        self.closed_system = bool(closed_system)

    def evaluate(
        self,
        queries: Sequence[QuerySpec],
        pivot_name: str,
        processors: float | None = None,
    ) -> ShareDecision:
        """Predict the effect of sharing ``queries`` at ``pivot_name``.

        A group of one cannot eliminate any work, so it is never worth
        the multiplexing overhead; the advisor still reports its
        (trivial) rates for uniformity.
        """
        n = self.processors if processors is None else float(processors)
        shared = shared_rate(queries, pivot_name, n, self.contention)
        unshared = unshared_rate(queries, n, self.contention)
        # Z is shared over the baseline the advisor was configured
        # with; the reported unshared rate stays the open-system one.
        baseline = (
            unshared_rate_closed(queries, n, self.contention)
            if self.closed_system
            else unshared
        )
        benefit = shared / baseline
        share = len(queries) > 1 and benefit > self.threshold
        return ShareDecision(
            share=share,
            benefit=benefit,
            shared_rate=shared,
            unshared_rate=unshared,
            group_size=len(queries),
            processors=n,
        )

    def should_join(
        self,
        group: Sequence[QuerySpec],
        candidate: QuerySpec,
        pivot_name: str,
        processors: float | None = None,
    ) -> ShareDecision:
        """Should ``candidate`` join an existing sharing ``group``?

        The runtime question from Section 8.1: the decision compares
        the *enlarged* group's shared rate against unshared execution
        of the enlarged group. (The group members are already committed
        to sharing; the paper's policy likewise asks whether the model
        predicts a benefit for the group the candidate would form.)
        """
        return self.evaluate([*group, candidate], pivot_name, processors)

    def best_group_size(
        self,
        query: QuerySpec,
        pivot_name: str,
        max_size: int,
        processors: float | None = None,
    ) -> int:
        """Largest group of identical queries that the model still
        predicts to benefit from sharing, up to ``max_size``.

        Supports the Section 8.1 optimization of capping group sizes so
        the pivot never becomes the dominating bottleneck. Returns 1
        when no group size helps.
        """
        if max_size < 1:
            raise SpecError(f"max_size must be >= 1, got {max_size}")
        members = sharers(query, max_size)
        best = 1
        for m in range(2, max_size + 1):
            if self.evaluate(members[:m], pivot_name, processors).share:
                best = m
        return best

    def best_partitioning(
        self,
        query: QuerySpec,
        pivot_name: str,
        clients: int,
        processors: float | None = None,
    ) -> GroupPartitioning:
        """Section 8.1 in full: split ``clients`` identical queries into
        several concurrent sharing groups and partition the processors
        among them.

        "If the system instead limits the number of queries allowed to
        join any one work sharing group, and partitions the available
        processors among multiple groups of shared queries, the system
        could reap the benefits of both work sharing and parallelism."

        Evaluates every group size g (k = ceil(clients/g) groups, each
        granted n/k processors) and returns the arrangement maximizing
        the predicted aggregate rate. ``group_size == 1`` degenerates
        to never-share; ``group_size == clients`` to a single shared
        group.
        """
        if clients < 1:
            raise SpecError(f"clients must be >= 1, got {clients}")
        n = self.processors if processors is None else float(processors)
        everyone = sharers(query, clients)
        best: GroupPartitioning | None = None
        for group_size in range(1, clients + 1):
            n_groups = -(-clients // group_size)  # ceil division
            per_group_n = n / n_groups
            # Last group may be smaller; model the two shapes exactly.
            full_groups, remainder = divmod(clients, group_size)
            rate = 0.0
            for size, count in ((group_size, full_groups), (remainder, 1 if remainder else 0)):
                if count == 0:
                    continue
                members = everyone[:size]
                if size == 1:
                    rate += count * unshared_rate(members, per_group_n, self.contention)
                else:
                    rate += count * shared_rate(members, pivot_name, per_group_n, self.contention)
            candidate = GroupPartitioning(
                group_size=group_size,
                n_groups=n_groups,
                processors_per_group=per_group_n,
                predicted_rate=rate,
            )
            if best is None or candidate.predicted_rate > best.predicted_rate:
                best = candidate
        return best
