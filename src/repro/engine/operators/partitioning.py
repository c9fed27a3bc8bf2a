"""Hash partitioning shared by the stateful operators and the exchange.

Partition assignment is behaviour: which spill file a row lands in,
which fragment folds a group. It must not depend on ``PYTHONHASHSEED``,
so it is a CRC of ``f"{salt}|{key!r}"`` rather than ``hash(key)``.

Keys that compare equal must land together — an INT join key meets a
FLOAT one, and ``1 == 1.0`` — so an integral float key is hashed as its
int; ``repr`` alone would split them. (A multi-column key is a tuple
whose every position comes from one typed column, so its parts never
meet a value of another type.)

The CRC runs in two steps — the ``salt|`` prefix, then the key's ``repr``
seeded with the prefix's CRC — which gives the same number as the
one-shot string without formatting it. Because that still costs a
``repr``, an encode and a checksum per call, operators that partition a
stream route through a :class:`PartitionMemo`, which pays it once per
distinct key instead of once per row and hashes the prefix once. Who
routes through one, and when:

* the exchange, every row it routes, from the first. Its memo is not
  its own: the engine holds one per fanout for its whole life
  (:meth:`~repro.engine.engine.Engine.exchange_memo`, bounded by
  ``EXCHANGE_MEMO_KEYS``), so a key is hashed once per engine, not once
  per query. A batch also keeps the split an exchange made of it, so a
  page the fused memo parks is routed once, not once per run;
* a governed hash join (build and probe share one memo) or aggregate,
  only once its memory grant first overflows: until then it holds one
  unpartitioned table and hashes nothing;
* the hybrid join's cleanup, one memo per re-partitioning level.
"""

from __future__ import annotations

from zlib import crc32

__all__ = ["MEMO_KEYS", "PartitionMemo", "partition_of"]

# Keys one memo holds before it starts over. Grouped inputs have few
# distinct keys and never reach it; a near-unique key stream (a join
# key, ``GROUP BY l_orderkey``) would otherwise grow the memo without
# bound, and since equal keys arrive in runs there, starting over keeps
# most of the hits.
MEMO_KEYS = 4096


def _prefix(salt: int) -> int:
    return crc32(f"{salt}|".encode())


def _key_bytes(key) -> bytes:
    """``repr(key)``, encoded, with an integral float written as its
    int, so keys that compare equal hash alike."""
    return repr(int(key) if type(key) is float and key.is_integer() else key).encode()


def partition_of(key, salt: int, fanout: int) -> int:
    """Deterministic partition number, independent of PYTHONHASHSEED.

    ``salt`` varies per recursion level so that a partition which does
    not fit is re-split along a different boundary. Keys that compare
    equal (``1``, ``1.0``) get the same number.
    """
    return crc32(_key_bytes(key), _prefix(salt)) % fanout


class PartitionMemo(dict):
    """``key -> partition_of(key, salt, fanout)``, computed once per key.

    Index it (``memo[key]``) or map over a key column
    (``map(memo.__getitem__, keys)``); holds at most ``bound`` keys
    (:data:`MEMO_KEYS` unless given), then starts over. Keys that
    compare equal (``1`` and ``1.0``) get the same partition, as they
    share a group and a join match: one entry while it lasts, and the
    same hash after the memo has started over.
    """

    __slots__ = ("salt", "fanout", "prefix", "bound")

    def __init__(self, salt: int, fanout: int, bound: int = MEMO_KEYS) -> None:
        super().__init__()
        self.salt = salt
        self.fanout = fanout
        self.prefix = _prefix(salt)
        self.bound = bound

    def __missing__(self, key) -> int:
        if len(self) >= self.bound:
            self.clear()
        partition = self[key] = crc32(_key_bytes(key), self.prefix) % self.fanout
        return partition
