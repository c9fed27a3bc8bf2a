"""Sharing-policy interface (Section 8).

A policy answers one runtime question: *should this arriving query
wait to share with a forming group of the same operation, or start
executing independently right now?* The three policies the paper
compares — always-share, never-share, and model-guided — implement
this interface; :class:`~repro.policies.coordinator.SharingCoordinator`
consults it on every submission.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.decision import ShareDecision

__all__ = ["SharingPolicy"]


class SharingPolicy(ABC):
    """Decides whether an arriving query joins a sharing group."""

    name: str = "policy"

    @abstractmethod
    def should_share(
        self,
        query_name: str,
        prospective_size: int,
        processors: int,
    ) -> ShareDecision | bool:
        """Truthy if the query should join/form a group.

        A policy that prices its verdict with the model returns the
        :class:`~repro.core.decision.ShareDecision` (truthy when sharing
        wins), so the coordinator's record of the decision carries its
        rates; an unpriced verdict is a plain ``bool``.

        Parameters
        ----------
        query_name:
            The query type (e.g. ``"q1"``); policies that model
            individual queries key their specs on it.
        prospective_size:
            The size of the sharing group the query would belong to if
            it joins (current sharers + itself).
        processors:
            Hardware contexts of the machine.
        """

    def observe_group(self, query_name: str, group_size: int, tasks) -> None:
        """Feedback hook: one group of this query type completed.

        ``tasks`` are the group's stage tasks with their accumulated
        busy times. Static policies ignore this; learning policies
        (online estimation) fold it into their model.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
