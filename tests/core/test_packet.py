"""Tests for the ASK packet format and wire accounting."""

from repro.core import constants
from repro.core.packet import (
    SWAP_CHANNEL_INDEX,
    PacketFlag,
    ack_for,
    fin_packet,
    swap_packet,
)
from tests.conftest import build_packet


def _data(slots, bitmap, flags=PacketFlag.DATA):
    return build_packet(
        slots,
        flags=flags,
        task_id=1,
        src="h0",
        dst="h1",
        channel_index=2,
        seq=5,
        bitmap=bitmap,
    )


def test_flag_properties():
    pkt = _data([(b"abcd", 1)], 0b1)
    assert pkt.is_data and not pkt.is_ack and not pkt.is_fin and not pkt.is_swap


def test_channel_key_identifies_sequence_space():
    pkt = _data([], 0)
    assert pkt.channel_key == ("h0", 2)


def test_payload_is_two_slot_aligned_columns():
    pkt = _data([(b"aaaa", 1), None, (b"cccc", 3)], 0b101)
    assert pkt.keys == (b"aaaa", None, b"cccc")
    assert pkt.values == (1, None, 3)
    assert pkt.num_slots == 3


def test_with_bitmap_preserves_everything_else():
    pkt = _data([(b"aaaa", 1)], 0b1)
    rewritten = pkt.with_bitmap(0)
    assert rewritten.bitmap == 0
    assert rewritten.keys == pkt.keys and rewritten.values == pkt.values
    assert rewritten.seq == pkt.seq
    assert pkt.bitmap == 0b1  # original untouched (immutability)


def test_tuple_count_is_popcount():
    pkt = _data([(b"a" * 4, 1)] * 4, 0b1011)
    assert pkt.tuple_count == 3


def test_data_frame_bytes_carries_all_slots_blank_or_not():
    pkt = _data([(b"aaaa", 1), None, None], 0b001)
    assert pkt.frame_bytes() == constants.HEADER_BYTES + 3 * constants.TUPLE_BYTES


def test_wire_overhead_is_78_bytes():
    pkt = _data([(b"aaaa", 1)], 0b1)
    assert pkt.wire_bytes() - pkt.num_slots * constants.TUPLE_BYTES == 78


def test_ack_frame_is_headers_only():
    ack = ack_for(_data([(b"aaaa", 1)], 0b1), replier="switch")
    assert ack.frame_bytes() == constants.HEADER_BYTES


def test_goodput_counts_only_live_slots():
    pkt = _data([(b"aaaa", 1), None, (b"cccc", 1)], 0b101)
    assert pkt.goodput_bytes() == 2 * constants.TUPLE_BYTES


def test_long_packet_variable_length_encoding():
    pkt = _data([(b"a-very-long-key", 1)], 0b1, flags=PacketFlag.DATA | PacketFlag.LONG)
    assert pkt.is_long
    assert pkt.frame_bytes() == constants.HEADER_BYTES + 1 + 15 + 4


def test_ack_for_reverses_direction_and_echoes_seq():
    pkt = _data([(b"aaaa", 1)], 0b1)
    ack = ack_for(pkt, replier="switch")
    assert ack.is_ack
    assert ack.dst == "h0" and ack.src == "switch"
    assert ack.seq == pkt.seq
    assert ack.channel_index == pkt.channel_index


def test_fin_packet_shape():
    fin = fin_packet(9, "h0", "h1", 3, seq=77)
    assert fin.is_fin and not fin.is_data
    assert fin.seq == 77 and fin.channel_key == ("h0", 3)


def test_swap_packet_uses_sentinel_channel_and_epoch():
    swap = swap_packet(9, "h1", "switch", epoch=5)
    assert swap.is_swap
    assert swap.channel_index == SWAP_CHANNEL_INDEX
    assert swap.seq == 5

