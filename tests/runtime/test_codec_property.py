"""Property: slotted packets round-trip through the wire codec.

The packet rewrite (``__slots__`` + precomputed flag predicates) must be
invisible on the wire: for any packet the stack can build,
``decode(encode(p)) == p`` and re-encoding is byte-identical.  That the
bytes equal the seed encoder's is ``tests/runtime/test_codec_reference.py``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import AskPacket, PacketFlag
from repro.runtime.codec import decode_packet, encode_packet
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
