"""Property: pooled/slotted packets round-trip through the wire codec
byte-identically to the seed dataclass encoding.

The packet rewrite (``__slots__`` + precomputed flag predicates) must be
invisible on the wire: for any packet the stack can build, (1)
``decode(encode(p)) == p`` and re-encoding is byte-identical, and (2)
the bytes equal what the seed dataclass implementation
(``reference_mode``) produces for the same fields."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import AskPacket, PacketFlag
from repro.runtime.codec import decode_packet, encode_packet
from repro.transport.reference import reference_mode
from tests.conftest import slot_columns

#: Flag combinations the stack actually emits (senders, switch, receiver).
FLAG_COMBOS = [
    PacketFlag.DATA,
    PacketFlag.DATA | PacketFlag.LONG,
    PacketFlag.DATA | PacketFlag.BYPASS,
    PacketFlag.DATA | PacketFlag.LONG | PacketFlag.BYPASS,
    PacketFlag.ACK,
    PacketFlag.FIN,
    PacketFlag.FIN | PacketFlag.BYPASS,
    PacketFlag.SWAP,
]

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
values = st.integers(min_value=0, max_value=(1 << 64) - 1)
slots = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.binary(min_size=1, max_size=16), values),
    ),
    max_size=8,
)


@st.composite
def packets(draw):
    return dict(
        flags=draw(st.sampled_from(FLAG_COMBOS)),
        task_id=draw(st.integers(min_value=0, max_value=(1 << 63) - 1)),
        src=draw(names),
        dst=draw(names),
        channel_index=draw(st.integers(min_value=-1, max_value=255)),
        seq=draw(st.integers(min_value=0, max_value=(1 << 40))),
        bitmap=draw(values),
        ecn=draw(st.booleans()),
        **slot_columns(draw(slots)),
    )


@settings(max_examples=200, deadline=None)
@given(fields=packets())
def test_roundtrip_and_byte_identity(fields):
    packet = AskPacket(**fields)
    wire = encode_packet(packet)
    decoded = decode_packet(wire)
    assert decoded == packet
    assert encode_packet(decoded) == wire


@settings(max_examples=60, deadline=None)
@given(fields=packets())
def test_matches_seed_dataclass_encoding(fields):
    optimized_wire = encode_packet(AskPacket(**fields))
    with reference_mode():
        seed_wire = encode_packet(AskPacket(**fields))
    assert optimized_wire == seed_wire
