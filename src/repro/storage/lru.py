"""A weighted least-recently-used map with a ceiling.

The one eviction policy under every host-side cache a long-lived
process keeps: the decoded-page memo of :mod:`repro.storage.table`
(weight: cells), the compiled-expression cache of
:mod:`repro.engine.expressions` and the experiment catalogs of
:mod:`repro.experiments.common` (weight: one per entry). A cache hit
and a cache miss charge the same simulated cost everywhere these are
used, so a budget can change wall time and resident memory but never
an answer or a clock.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

__all__ = ["WeightedLRU"]


class WeightedLRU:
    """Key → value map that evicts oldest-first once ``weight`` exceeds
    ``budget``. :meth:`get` and :meth:`put` make a key the newest.

    An entry heavier than the whole budget is evicted by its own
    ``put`` — the ceiling holds at every instant. ``on_evict(key,
    value)`` runs for every entry the budget pushes out (not for
    :meth:`pop`), after the entry has left the map.
    """

    def __init__(
        self,
        budget: int,
        on_evict: Optional[Callable[[Hashable, Any], None]] = None,
    ) -> None:
        self.budget = budget
        self.weight = 0
        self.evictions = 0
        self._on_evict = on_evict
        self._entries: OrderedDict = OrderedDict()  # key -> (value, weight), oldest first

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (``None`` if absent), now the newest."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: Hashable, value: Any, weight: int = 1) -> None:
        self.pop(key)
        self._entries[key] = (value, weight)
        self.weight += weight
        while self.weight > self.budget:
            old_key, (old_value, old_weight) = self._entries.popitem(last=False)
            self.weight -= old_weight
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(old_key, old_value)

    def pop(self, key: Hashable) -> Any:
        """Remove ``key`` and return its value (``None`` if absent)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self.weight -= entry[1]
        return entry[0]
