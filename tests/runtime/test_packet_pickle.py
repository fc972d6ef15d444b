"""Property: everything that can cross the shard cut survives pickling.

A forked shard worker pickles its outgoing messages once and the
destination worker unpickles them once (``repro.net.sharded``); packets
ship through a compact ``__reduce__`` that carries the wire fields only.
For any packet the stack can build — and a ``CorruptedFrame`` around it —
the loaded object must equal the original field by field *including* the
derived ones the reduce tuple leaves out, and be a distinct object.  No
example budget of its own: tier-1 runs the default profile, CI's fuzz job
the larger ``ci-fuzz`` one."""

import pickle

import pytest
from hypothesis import given, settings

from repro.core.packet import (
    AskPacket,
    PacketFlag,
    ack_for,
    fin_packet,
    swap_packet,
)
from repro.net.fault import CorruptedFrame
from tests.runtime.test_codec_property import packets


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def _assert_same_packet(loaded, packet):
    assert type(loaded) is AskPacket
    assert loaded is not packet
    assert loaded == packet
    # Every slot, derived ones included (channel_key, is_*, _frame_bytes).
    for name in AskPacket.__slots__:
        assert getattr(loaded, name) == getattr(packet, name), name
    assert loaded.wire_bytes() == packet.wire_bytes()
    assert loaded.frame_bytes() == packet.frame_bytes()


#: What a packet ships across the shard cut: its constructor arguments.
_WIRE_FIELDS = (
    "flags", "task_id", "src", "dst", "channel_index", "seq", "bitmap", "keys", "values", "ecn",
)


@settings(deadline=None)
@given(fields=packets())
def test_packet_pickle_roundtrip_keeps_every_field(fields):
    packet = AskPacket(**fields)
    # Derived fields are rebuilt on load, not shipped: the reduce tuple is
    # the constructor and exactly the ten wire fields.
    rebuild, args = packet.__reduce__()
    assert rebuild is AskPacket
    assert args == tuple(getattr(packet, name) for name in _WIRE_FIELDS)
    loaded = pickle.loads(pickle.dumps(packet, pickle.HIGHEST_PROTOCOL))
    _assert_same_packet(loaded, packet)


@settings(deadline=None)
@given(fields=packets())
def test_corrupted_frame_pickle_roundtrip(fields):
    frame = CorruptedFrame(AskPacket(**fields))
    loaded = _roundtrip(frame)
    assert type(loaded) is CorruptedFrame
    assert loaded is not frame
    _assert_same_packet(loaded.packet, frame.packet)
    assert (loaded.src, loaded.dst, loaded.ecn) == (frame.src, frame.dst, frame.ecn)
    assert loaded.wire_bytes() == frame.wire_bytes()
    assert loaded.with_ecn() is loaded


_DATA = AskPacket(
    PacketFlag.DATA, 7, "h0", "h3", 2, 41, 0b0101,
    (b"k0\x00\x00", None, b"k1\x00\x00", None), (5, None, 9, None),
)

#: One of every kind the stack builds, by its own constructors.
STACK_PACKETS = {
    "data-with-blank-slots": _DATA,
    "data-ecn-marked": _DATA.with_ecn(),
    "data-bitmap-rewritten": _DATA.with_bitmap(0b0001),
    "long": AskPacket(
        PacketFlag.DATA | PacketFlag.LONG, 7, "h0", "h3", 2, 42, 0b1,
        (b"a-long-key-past-the-slot-width",), (3,),
    ),
    "bypass": AskPacket(
        PacketFlag.DATA | PacketFlag.BYPASS, 7, "h0", "h3", 2, 43, 0b1,
        (b"k0\x00\x00",), (5,),
    ),
    "ack": ack_for(_DATA, "tor-r0"),
    "ack-with-ecn-echo": ack_for(_DATA.with_ecn(), "h3"),
    "fin": fin_packet(7, "h0", "h3", 2, 44),
    "swap": swap_packet(7, "h3", "tor-r0", 3),
}


@pytest.mark.parametrize("kind", sorted(STACK_PACKETS))
def test_every_stack_packet_kind_roundtrips_bare_and_corrupted(kind):
    packet = STACK_PACKETS[kind]
    _assert_same_packet(_roundtrip(packet), packet)
    _assert_same_packet(_roundtrip(CorruptedFrame(packet)).packet, packet)
    # A message as the outbox ships it: a list of (arrival, ticket, link,
    # frame) tuples in one dump.
    messages = [(1_000, 17, "core:r0->r1", packet), (1_001, 18, "core:r0->r1", packet)]
    loaded = _roundtrip(messages)
    assert [m[:3] for m in loaded] == [m[:3] for m in messages]
    for message in loaded:
        _assert_same_packet(message[3], packet)
