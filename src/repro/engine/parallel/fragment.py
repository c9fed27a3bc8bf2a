"""Fragmented parallel scans: one table, ``dop`` page ranges.

A parallel scan splits the table's pages into contiguous ranges with
:func:`partition_ranges`, one
:class:`~repro.engine.operators.scan.ScanOperator` per range (its
``pages`` argument). Each fragment reads its range in ascending page
order — the property every downstream determinism argument
(order-preserving gather, bit-identical partition-wise aggregation)
builds on.

With a :class:`~repro.storage.shared_scan.ScanShareManager` attached,
a fragment does not bypass the sharing layer: it attaches a *ranged*
ticket (fixed start, page-range span) to the table's elevator cursor,
so fragments of concurrent queries convoy on overlapping ranges, share
pool residency and in-flight prefetches, and appear in the cursor's
sharing statistics. A ranged ticket walks ``[lo, hi)`` in order
regardless of the cursor's head, so fragment output order — unlike a
full elevator scan's — never rotates.
"""

from __future__ import annotations

__all__ = ["partition_ranges"]


def partition_ranges(n_pages: int, dop: int) -> list[tuple[int, int]]:
    """Split ``n_pages`` into at most ``dop`` contiguous ranges.

    Ranges differ in length by at most one page; fewer than ``dop``
    ranges come back when the table is smaller than the requested
    parallelism (never an empty range).
    """
    fragments = max(1, min(dop, n_pages))
    base, extra = divmod(n_pages, fragments)
    ranges = []
    lo = 0
    for index in range(fragments):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges
