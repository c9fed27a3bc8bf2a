"""The never-share static policy: maximum parallelism, redundant work.

Conservative baseline: every query executes independently. Wins on
many cores for scan-heavy loads, but gives up the enormous benefits of
sharing join-heavy queries (Figure 6 left).
"""

from __future__ import annotations

from repro.policies.base import SharingPolicy

__all__ = ["NeverShare"]


class NeverShare(SharingPolicy):
    name = "never"

    def should_share(self, query_name: str, prospective_size: int, processors: int) -> bool:
        return False
