"""Stable hash functions used by ASK.

Python's built-in ``hash`` is salted per process, so both the key-space
partition hash ``F`` (§3.2.2) and the aggregator-index hash (§3.2.1) are
implemented as FNV-1a over the key bytes.  The two uses are decorrelated by
seeding FNV-1a with different offset bases; using one hash for both would
make every key in subspace *i* collide into a fraction of each AA.
"""

from __future__ import annotations

from functools import lru_cache

FNV_PRIME_32 = 0x01000193
FNV_OFFSET_32 = 0x811C9DC5

# A second offset basis (FNV-1a of the ASCII string "ASK") decorrelates the
# address hash from the partition hash.
_ADDR_OFFSET_32 = 0x5BCCB8A3

#: Bound of every key-derived memo: the two hash memos here, the packer's
#: routing cache and the switch program's address-hash table.  Keys can
#: come off the wire (a ``repro serve`` switch hashes whatever it is
#: sent), so no memo may grow with the number of distinct keys seen.
MEMO_LIMIT = 1 << 16


def fnv1a32(data: bytes, offset: int = FNV_OFFSET_32) -> int:
    """32-bit FNV-1a hash of ``data``."""
    value = offset
    for byte in data:
        value ^= byte
        value = (value * FNV_PRIME_32) & 0xFFFFFFFF
    return value


def _partition_hash_uncached(key: bytes) -> int:
    return fnv1a32(key, FNV_OFFSET_32)


@lru_cache(maxsize=MEMO_LIMIT)
def partition_hash(key: bytes) -> int:
    """The key-space partition hash F (§3.2.2).

    ``partition_hash(key) % num_subspaces`` selects the packet slot / AA a
    key is dedicated to.  Must be uniform so subspaces are balanced.

    Memoized, least-recently-used beyond :data:`MEMO_LIMIT` keys: the hash
    is pure, streams revisit the same keys constantly, and the byte-wise
    FNV loop is a hot-path cost otherwise.
    """
    return _partition_hash_uncached(key)


def _fmix32(value: int) -> int:
    """MurmurHash3 finalizer: full avalanche over 32 bits.

    FNV-1a's low bits are weakly mixed, so two FNV streams differing only
    in their offset basis stay correlated modulo small powers of two.  Real
    switches use distinct CRC polynomials for the two hash units; the
    finalizer provides the equivalent decorrelation here.
    """
    value ^= value >> 16
    value = (value * 0x85EBCA6B) & 0xFFFFFFFF
    value ^= value >> 13
    value = (value * 0xC2B2AE35) & 0xFFFFFFFF
    value ^= value >> 16
    return value


def _address_hash_uncached(key: bytes) -> int:
    return _fmix32(fnv1a32(key, _ADDR_OFFSET_32))


@lru_cache(maxsize=MEMO_LIMIT)
def address_hash(key: bytes) -> int:
    """The within-AA aggregator index hash (§3.2.1, ``hash(key)``).

    Independent of :func:`partition_hash` so that the keys of one subspace
    spread over the whole AA.  Memoized like :func:`partition_hash`.
    """
    return _address_hash_uncached(key)


def channel_hash(task_id: int) -> int:
    """The ``hash(ID)`` used to load-balance tasks over data channels (§3.1)."""
    return fnv1a32(task_id.to_bytes(8, "little", signed=False))
