"""Tests for sender-side multi-key packet construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.keyspace import KeyClass, KeySpaceLayout, unpad_key
from repro.core.packer import Packer, pack_stream


@pytest.fixture
def cfg():
    return AskConfig.small()  # 8 slots: 4 short + 2 groups of 2


def decode_payloads(payloads, cfg):
    """Reassemble the logical tuples carried by packed payloads."""
    layout = KeySpaceLayout(cfg)
    tuples = []
    for payload in payloads:
        keys, values = payload.keys, payload.values
        if payload.is_long:
            tuples.extend((key, value) for key, value in zip(keys, values) if key is not None)
            continue
        for index in range(layout.num_short_slots):
            if payload.bitmap >> index & 1:
                tuples.append((unpad_key(keys[index]), values[index]))
        for group in range(layout.num_groups):
            slots = layout.group_slots(group)
            if payload.bitmap >> slots[0] & 1:
                segments = b"".join(keys[s] for s in slots)
                tuples.append((unpad_key(segments), values[slots[-1]]))
    return tuples


def test_single_short_key(cfg):
    payloads, stats = pack_stream([(b"cat", 5)], cfg)
    assert len(payloads) == 1
    assert payloads[0].bitmap.bit_count() == 1
    assert decode_payloads(payloads, cfg) == [(b"cat", 5)]


def test_same_key_always_same_slot(cfg):
    payloads, _ = pack_stream([(b"cat", 1)] * 5, cfg)
    slots = set()
    for payload in payloads:
        (index,) = [i for i in range(cfg.num_aas) if payload.bitmap >> i & 1]
        slots.add(index)
    assert len(slots) == 1  # no single-key-multiple-spot


def test_one_tuple_per_subspace_per_packet(cfg):
    # Five occurrences of one key need five packets even though one packet
    # has room for more: an AA can absorb one tuple per pass.
    payloads, _ = pack_stream([(b"cat", 1)] * 5, cfg)
    assert len(payloads) == 5


def test_different_subspaces_share_one_packet(cfg):
    layout = KeySpaceLayout(cfg)
    keys, seen = [], set()
    i = 0
    while len(keys) < 3:
        key = ("k%02d" % i).encode()
        slot = layout.assign(key).primary_slot
        if slot not in seen:
            seen.add(slot)
            keys.append(key)
        i += 1
    payloads, _ = pack_stream([(k, 1) for k in keys], cfg)
    assert len(payloads) == 1
    assert payloads[0].bitmap.bit_count() == 3


def test_medium_key_occupies_its_group(cfg):
    payloads, stats = pack_stream([(b"yours", 7)], cfg)
    assert len(payloads) == 1
    payload = payloads[0]
    assert payload.bitmap.bit_count() == cfg.medium_group_width
    assert stats.medium_tuples == 1
    assert decode_payloads(payloads, cfg) == [(b"yours", 7)]


def test_medium_value_rides_in_last_segment(cfg):
    layout = KeySpaceLayout(cfg)
    payloads, _ = pack_stream([(b"yours", 7)], cfg)
    payload = payloads[0]
    group = layout.group_of_slot(
        next(i for i in range(cfg.num_aas) if payload.bitmap >> i & 1)
    )
    first, last = layout.group_slots(group)
    assert payload.values[first] == 0
    assert payload.values[last] == 7


def test_long_keys_batched_separately(cfg):
    long_keys = [(b"averylongkey-%02d" % i, i) for i in range(10)]
    payloads, stats = pack_stream(long_keys + [(b"cat", 1)], cfg)
    normal = [p for p in payloads if not p.is_long]
    long = [p for p in payloads if p.is_long]
    assert len(normal) == 1
    assert stats.long_tuples == 10
    assert len(long) == -(-10 // cfg.num_aas)
    assert sorted(decode_payloads(payloads, cfg)) == sorted(long_keys + [(b"cat", 1)])


def test_long_batch_capped_at_num_slots(cfg):
    long_keys = [(b"longkey-%03d-xx" % i, 1) for i in range(cfg.num_aas + 3)]
    payloads, _ = pack_stream(long_keys, cfg)
    assert all(len(p.keys) == len(p.values) <= cfg.num_aas for p in payloads)


def test_blank_slot_accounting(cfg):
    _, stats = pack_stream([(b"cat", 1)], cfg)
    assert stats.blank_slots == cfg.num_aas - 1
    assert stats.packets == 1


def test_occupancy_histogram_counts_logical_tuples(cfg):
    _, stats = pack_stream([(b"yours", 1)], cfg)  # one medium tuple, 2 slots
    assert stats.occupancy_histogram == {1: 1}


def test_mean_and_cdf(cfg):
    _, stats = pack_stream([(b"cat", 1), (b"cat", 1)], cfg)
    assert stats.mean_occupied_slots() == 1.0
    assert stats.occupancy_cdf() == [(1, 1.0)]


def test_values_masked_to_register_width():
    cfg = AskConfig.small(value_bits=8)
    payloads, _ = pack_stream([(b"cat", 0x1FF)], cfg)
    tuples = decode_payloads(payloads, cfg)
    assert tuples == [(b"cat", 0xFF)]


def test_empty_stream_yields_nothing(cfg):
    payloads, stats = pack_stream([], cfg)
    assert payloads == []
    assert stats.packets == 0


def test_pending_flag(cfg):
    packer = Packer(cfg)
    assert not packer.pending
    packer.add(b"cat", 1)
    assert packer.pending
    list(packer.payloads())
    assert not packer.pending


def test_stats_tuple_class_counters(cfg):
    stream = [(b"cat", 1), (b"medium", 1), (b"a-very-long-key!", 1)]
    _, stats = pack_stream(stream, cfg)
    assert stats.tuples_in == 3
    assert (stats.short_tuples, stats.medium_tuples, stats.long_tuples) == (1, 1, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=12), st.integers(0, 2**31)),
        max_size=60,
    )
)
def test_packing_preserves_the_tuple_multiset(stream):
    """Every tuple ends up in exactly one payload slot, unchanged."""
    cfg = AskConfig.small()
    payloads, _ = pack_stream(stream, cfg)
    packed = decode_payloads(payloads, cfg)
    assert sorted(packed) == sorted((k, v & cfg.value_mask) for k, v in stream)
