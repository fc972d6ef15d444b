"""Tests for the stable hash functions."""

from repro.core.hashing import (
    MEMO_LIMIT,
    _address_hash_uncached,
    _partition_hash_uncached,
    address_hash,
    channel_hash,
    fnv1a32,
    partition_hash,
)


def test_fnv1a32_known_vectors():
    # Standard FNV-1a test vectors.
    assert fnv1a32(b"") == 0x811C9DC5
    assert fnv1a32(b"a") == 0xE40C292C
    assert fnv1a32(b"foobar") == 0xBF9CF968


def test_hashes_are_deterministic_across_calls():
    assert partition_hash(b"hello") == partition_hash(b"hello")
    assert address_hash(b"hello") == address_hash(b"hello")


def test_partition_and_address_hashes_are_decorrelated():
    # Same key, different offsets -> different hash streams; keys of one
    # subspace must still spread over the whole AA.
    keys = [("k%d" % i).encode() for i in range(2048)]
    same_subspace = [k for k in keys if partition_hash(k) % 16 == 3]
    assert len(same_subspace) > 60
    addresses = {address_hash(k) % 64 for k in same_subspace}
    # If the two hashes were correlated, keys of one subspace would land on
    # 1/16th of the AA; decorrelated they cover most of its 64 cells.
    assert len(addresses) > 40


def test_partition_hash_is_roughly_uniform():
    counts = [0] * 16
    for i in range(16_000):
        counts[partition_hash(str(i).encode()) % 16] += 1
    assert min(counts) > 700 and max(counts) < 1300


def test_channel_hash_spreads_task_ids():
    slots = {channel_hash(task) % 4 for task in range(1, 32)}
    assert slots == {0, 1, 2, 3}


def test_hash_output_is_32_bit():
    for data in (b"", b"x", b"a-long-key" * 10):
        assert 0 <= fnv1a32(data) <= 0xFFFFFFFF


def test_hash_memos_are_bounded():
    """Keys can come off the wire, so neither memo may grow with the
    number of distinct keys: twice the bound leaves both at the bound,
    still returning the uncached values."""
    keys = [b"bound-%d" % i for i in range(2 * MEMO_LIMIT)]
    for index, key in enumerate(keys):
        partition, address = partition_hash(key), address_hash(key)
        if index % 61 == 0:
            assert partition == _partition_hash_uncached(key)
            assert address == _address_hash_uncached(key)
    for memo in (partition_hash, address_hash):
        info = memo.cache_info()
        assert info.maxsize == MEMO_LIMIT
        assert info.currsize <= MEMO_LIMIT
    assert partition_hash(keys[0]) == _partition_hash_uncached(keys[0])
    assert address_hash(keys[0]) == _address_hash_uncached(keys[0])
