"""Hash partitioning shared by the stateful operators and the exchange.

Partition assignment is behaviour: which spill file a row lands in,
which fragment folds a group. It must not depend on ``PYTHONHASHSEED``,
so it is a CRC of the key's ``repr`` rather than ``hash(key)`` — and
because that costs a string format, an encode and a checksum per call,
operators that partition a stream route through a :class:`PartitionMemo`
and pay it once per distinct key instead of once per row.
"""

from __future__ import annotations

import zlib

__all__ = ["MEMO_KEYS", "PartitionMemo", "partition_of"]

# Keys one memo holds before it starts over. Grouped inputs have few
# distinct keys and never reach it; a near-unique key stream (a join
# key, ``GROUP BY l_orderkey``) would otherwise grow the memo without
# bound, and since equal keys arrive in runs there, starting over keeps
# most of the hits.
MEMO_KEYS = 4096


def partition_of(key, salt: int, fanout: int) -> int:
    """Deterministic partition number, independent of PYTHONHASHSEED.

    ``salt`` varies per recursion level so that a partition which does
    not fit is re-split along a different boundary.
    """
    return zlib.crc32(f"{salt}|{key!r}".encode()) % fanout


class PartitionMemo(dict):
    """``key -> partition_of(key, salt, fanout)``, computed once per key.

    Index it (``memo[key]``) or map over a key column
    (``map(memo.__getitem__, keys)``); holds at most :data:`MEMO_KEYS`
    keys. Keys that compare equal (``1`` and ``1.0``) share the entry
    of whichever came first, as they share a group and a join match.
    """

    __slots__ = ("salt", "fanout")

    def __init__(self, salt: int, fanout: int) -> None:
        super().__init__()
        self.salt = salt
        self.fanout = fanout

    def __missing__(self, key) -> int:
        if len(self) >= MEMO_KEYS:
            self.clear()
        partition = self[key] = partition_of(key, self.salt, self.fanout)
        return partition
