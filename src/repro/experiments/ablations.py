"""Ablations of ASK's design choices (DESIGN.md §4).

Each ablation implements the *rejected* alternative so the design choice can
be measured, not just asserted:

- :func:`naive_segment_lookup` — the §3.2.3 "naive approach" for
  variable-length keys: each segment is placed independently by its own
  hash.  It exhibits the ``X1Y2`` false-match the paper describes, which
  the coalesced placement eliminates.
- :class:`RandomSlotPacker` — packet construction without the ordered
  key-space partition: a key's tuples land on random slots, so one key can
  occupy aggregators in several AAs (single-key-multiple-spot), wasting
  switch memory.
- :func:`seen_memory_comparison` — SRAM cost of the compact W-bit ``seen``
  vs the conceptual 2W-bit design (§3.3's 50 % saving), plus the register
  accesses each needs per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import AskConfig
from repro.core.hashing import address_hash
from repro.core.keyspace import KeySpaceLayout, pad_key
from repro.core.packer import PackStats
from repro.switch.dedup import DedupUnit


# ---------------------------------------------------------------------------
# Naive variable-length key placement (the X1Y2 bug)
# ---------------------------------------------------------------------------
@dataclass
class NaiveSegmentStore:
    """Two AAs where each segment of a long key is placed *independently*
    (hashed by its own bytes), as the naive design of §3.2.3 would."""

    size: int

    def __post_init__(self) -> None:
        self.segment_tables: list[dict[int, bytes]] = [{}, {}]
        self.values: dict[tuple[int, int], int] = {}

    def _index(self, segment: bytes) -> int:
        return address_hash(segment) % self.size

    def insert(self, key_segments: tuple[bytes, bytes], value: int) -> bool:
        """Insert/aggregate; returns True when all segments 'matched'."""
        indices = tuple(self._index(seg) for seg in key_segments)
        matched = True
        for table, seg, idx in zip(self.segment_tables, key_segments, indices):
            stored = table.get(idx)
            if stored is None:
                table[idx] = seg
            elif stored != seg:
                matched = False
        if matched:
            self.values[indices] = self.values.get(indices, 0) + value
        return matched


def naive_segment_lookup(size: int = 1 << 16) -> dict[str, bool]:
    """Demonstrate the false match: after inserting X1X2 and Y1Y2, the key
    X1Y2 passes the naive per-segment validation although it was never
    inserted — corrupting the aggregation (§3.2.3)."""
    store = NaiveSegmentStore(size)
    x1, x2 = b"wint", b"er\x80\x00"
    y1, y2 = b"summ", b"it\x80\x00"
    store.insert((x1, x2), 1)
    store.insert((y1, y2), 1)
    return {
        "x1x2_matches": store.insert((x1, x2), 1),
        "false_match_x1y2": store.insert((x1, y2), 1),  # the bug: True
    }


def coalesced_lookup_rejects_x1y2(config: AskConfig | None = None) -> bool:
    """The coalesced design: unified index over the whole key, so X1Y2
    reserves/validates its own aggregator row and never aliases X1X2."""
    from repro.switch.aggregator import AggregatorPool
    from repro.switch.pisa import Pipeline
    from repro.switch.registers import PassContext

    cfg = config or AskConfig.small(shadow_copy=False)
    pool = AggregatorPool(cfg, Pipeline(max_stages=64), first_stage=0)
    layout = KeySpaceLayout(cfg)
    group = layout.group_slots(0)

    def put(key: bytes, value: int) -> bool:
        padded = pad_key(key, cfg.medium_key_bytes)
        segments = layout.segments(padded)
        index = address_hash(padded) % cfg.copy_size
        return pool.aggregate_group(PassContext(), group, index, segments, value)

    put(b"winter", 1)
    put(b"summit", 1)
    # X1Y2 = "wint" + "it": a key made of X's first segment and Y's second.
    hybrid = b"wintit"
    outcome = put(hybrid, 1)
    # The hybrid key gets its OWN unified index; it may claim a blank row
    # (legitimate: it is a new key) but can never alias X1X2's row unless
    # the full 8-byte padded keys collide.
    x_padded = pad_key(b"winter", cfg.medium_key_bytes)
    h_padded = pad_key(hybrid, cfg.medium_key_bytes)
    same_row = (
        address_hash(x_padded) % cfg.copy_size
        == address_hash(h_padded) % cfg.copy_size
    )
    return outcome and not same_row


# ---------------------------------------------------------------------------
# Random slot placement (no sender-assisted addressing)
# ---------------------------------------------------------------------------
class RandomSlotPacker:
    """Packer without the ordered key-space partition (§3.2.2 ablation).

    Each tuple is placed on a random free slot of the current packet, so
    one key's occurrences land on different slots across packets — the
    single-key-multiple-spot effect.  Only short keys are modelled (the
    effect is independent of key length).
    """

    def __init__(self, config: AskConfig, seed: int = 0) -> None:
        import random

        self.config = config
        self.stats = PackStats()
        self._rng = random.Random(seed)

    def pack(self, stream) -> list[list[tuple[int, bytes, int]]]:
        """Greedy random packing: per-packet (slot, padded key, value)
        placements."""
        packets: list[list[tuple[int, bytes, int]]] = []
        free: list[int] = []
        current: list[tuple[int, bytes, int]] = []
        for key, value in stream:
            self.stats.tuples_in += 1
            if not free:
                if current:
                    packets.append(current)
                current = []
                free = list(range(self.config.num_aas))
                self._rng.shuffle(free)
            padded = pad_key(key, self.config.key_bytes)
            current.append((free.pop(), padded, value))
        if current:
            packets.append(current)
        self.stats.packets = len(packets)
        return packets


def aggregator_footprint(
    stream, config: AskConfig, randomized: bool
) -> int:
    """Distinct (AA, cell) aggregators a stream's keys would reserve.

    With sender-assisted addressing every key reserves exactly one
    aggregator; with random placement a key reserves up to one per AA it
    ever lands in — the memory waste the partition exists to avoid.
    """
    layout = KeySpaceLayout(config)
    occupied: set[tuple[int, int]] = set()
    if randomized:
        packer = RandomSlotPacker(config)
        for packet in packer.pack(stream):
            for slot_index, padded, _value in packet:
                occupied.add((slot_index, address_hash(padded) % config.copy_size))
    else:
        for key, _value in stream:
            assignment = layout.assign(key)
            occupied.add(
                (
                    assignment.primary_slot,
                    address_hash(assignment.padded) % config.copy_size,
                )
            )
    return len(occupied)


# ---------------------------------------------------------------------------
# Compact vs reference `seen`
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SeenComparison:
    compact_bits_per_channel: int
    reference_bits_per_channel: int
    compact_accesses_per_pass: int
    reference_accesses_per_pass: int

    @property
    def memory_saving(self) -> float:
        return 1 - self.compact_bits_per_channel / self.reference_bits_per_channel


def seen_memory_comparison(window: int = 256, channels: int = 64) -> SeenComparison:
    """Quantify §3.3's "saving 50% memory for seen" claim, and the access
    budget that makes only the compact design implementable on PISA."""
    compact = DedupUnit(AskConfig(window_size=window, use_compact_seen=True), channels)
    reference = DedupUnit(
        AskConfig(window_size=window, use_compact_seen=False), channels
    )
    return SeenComparison(
        compact_bits_per_channel=compact.seen.size // channels,
        reference_bits_per_channel=reference.seen.size // channels,
        compact_accesses_per_pass=1,  # one atomic set_bit/clr_bitc
        reference_accesses_per_pass=3,  # read + set + clear-ahead
    )
