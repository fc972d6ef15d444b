"""Protocol and wire-format constants.

All sizes follow §5.3 of the paper (footnote 9): a packet on the wire costs

    78 = 12 (inter-packet gap) + 7 (preamble) + 1 (start-frame delimiter)
       + 14 (Ethernet) + 20 (IP) + 20 (ASK header) + 4 (CRC)

bytes of overhead on top of the key-value payload, and each short key-value
tuple occupies 8 bytes (4-byte key + 4-byte value).
"""

from __future__ import annotations

# --- Layer sizes (bytes) ----------------------------------------------------
INTER_PACKET_GAP = 12
PREAMBLE = 7
START_FRAME_DELIMITER = 1
ETHERNET_HEADER = 14
IP_HEADER = 20
ASK_HEADER = 20
CRC = 4

#: Headers that travel inside the frame (Ethernet + IP + ASK).
HEADER_BYTES = ETHERNET_HEADER + IP_HEADER + ASK_HEADER

#: Physical-layer framing cost that consumes wire time but is not "bytes in
#: the frame": IPG + preamble + SFD + CRC.
FRAMING_EXTRA = INTER_PACKET_GAP + PREAMBLE + START_FRAME_DELIMITER + CRC

#: Total per-packet wire overhead, the 78 bytes of the paper's goodput law.
WIRE_OVERHEAD = HEADER_BYTES + FRAMING_EXTRA

#: Bytes of one short key-value tuple (4-byte key + 4-byte value).
TUPLE_BYTES = 8

# --- Default protocol geometry (§4 Implementation) ---------------------------
#: Aggregator arrays per pipeline; also the number of tuple slots per packet.
DEFAULT_NUM_AAS = 32

#: Aggregators per AA (both shadow copies together).
DEFAULT_AGGREGATORS_PER_AA = 32768

#: Sliding-window size W (§3.3, "the max sliding window size is set to 256").
DEFAULT_WINDOW = 256

#: Medium-key geometry (§3.2.3): k groups of m adjacent AAs.
DEFAULT_MEDIUM_GROUPS = 8
DEFAULT_MEDIUM_GROUP_WIDTH = 2

#: Register arrays a PISA stage may declare (§3.2.1).
REGISTER_ARRAYS_PER_STAGE = 4

#: SRAM per stage / stages per pipeline on Tofino3 (§3.2.1).
SRAM_PER_STAGE_BYTES = 1280 * 1024
STAGES_PER_PIPELINE = 16

#: Retransmission timeout chosen by the paper (§3.3): 100 us, not the Linux
#: default 200 ms.
DEFAULT_RTO_US = 100.0

#: Time a packet spends traversing the switch pipeline (ns).
SWITCH_PIPELINE_LATENCY_NS = 600

#: One control-plane step — task setup, sender start, a swap or finalize
#: round trip, a switch re-install — takes this long (ns).
CONTROL_LATENCY_NS = 10_000
