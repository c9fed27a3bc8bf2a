"""Hash partition numbers: unchanged by how the CRC is computed.

Which partition a key hashes to decides which spill file a row lands
in and which fragment folds a group, so the numbers are behaviour. The
oracle is the one-shot formula ``crc32(f"{salt}|{key!r}".encode())``,
an integral float key written as its int (so ``1`` and ``1.0``, equal
join keys, land together); both :func:`partition_of` and
:class:`PartitionMemo` must agree with it for every key, salt and
fanout.
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators.partitioning import MEMO_KEYS, PartitionMemo, partition_of

scalars = (
    st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.none()
)
keys = scalars | st.tuples(scalars) | st.tuples(scalars, scalars, scalars)
salts = st.integers(min_value=0, max_value=3)
fanouts = st.sampled_from([1, 2, 3, 4, 8, 16, 31])


def oracle(key, salt: int, fanout: int) -> int:
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    return zlib.crc32(f"{salt}|{key!r}".encode()) % fanout


@given(key=keys, salt=salts, fanout=fanouts)
@settings(max_examples=300, deadline=None)
def test_partition_of_equals_one_shot_formula(key, salt, fanout):
    assert partition_of(key, salt, fanout) == oracle(key, salt, fanout)


@given(batch=st.lists(keys, max_size=40), salt=salts, fanout=fanouts)
@settings(max_examples=100, deadline=None)
def test_memo_equals_one_shot_formula(batch, salt, fanout):
    memo = PartitionMemo(salt, fanout)
    partitions = list(map(memo.__getitem__, batch))
    # Keys comparing equal (``1``, ``1.0``, ``True``) share the entry
    # of the first one seen, and so its partition.
    first = {}
    for key in batch:
        first.setdefault(key, key)
    assert partitions == [oracle(first[key], salt, fanout) for key in batch]


@given(value=st.integers(-(2**60), 2**60), salt=salts, fanout=fanouts)
@settings(max_examples=100, deadline=None)
def test_equal_int_and_float_keys_share_a_partition(value, salt, fanout):
    assert partition_of(float(value), salt, fanout) == partition_of(int(float(value)), salt, fanout)


def test_equal_key_keeps_its_partition_after_the_memo_starts_over():
    # 1.0 arrives after the memo has started over and dropped 1's entry.
    memo = PartitionMemo(0, 31)
    first = memo[1]
    for key in range(2, MEMO_KEYS + 2):
        memo[key]
    assert 1 not in memo
    assert memo[1.0] == first


def test_memo_starts_over_at_its_bound():
    memo = PartitionMemo(1, 8)
    for key in range(MEMO_KEYS):
        memo[key]
    assert len(memo) == MEMO_KEYS
    assert memo[MEMO_KEYS] == oracle(MEMO_KEYS, 1, 8)
    assert len(memo) == 1
    assert all(len(memo) <= MEMO_KEYS for _ in map(memo.__getitem__, range(3 * MEMO_KEYS)))
