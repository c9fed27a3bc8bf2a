"""The always-share static policy: exploit every sharing opportunity.

This is the policy implicit in aggressive work-sharing designs; the
paper shows it collapses on many-core machines (Figure 6 right: 80
queries/min vs the model policy's 200) because it lets the pivot's
serialization grow unboundedly.
"""

from __future__ import annotations

from repro.policies.base import SharingPolicy

__all__ = ["AlwaysShare"]


class AlwaysShare(SharingPolicy):
    name = "always"

    def should_share(self, query_name: str, prospective_size: int, processors: int) -> bool:
        return prospective_size >= 2
