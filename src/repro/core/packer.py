"""Sender-side packet construction (§3.2).

The packer turns a key-value stream into multi-key payloads:

- every key is classified (short / medium / long) and, via the ordered
  key-space partition, queued for its dedicated packet slot or coalesced
  group — so one key always travels in the same slot and is always handled
  by the same AA (no single-key-multiple-spot waste),
- payloads are built by taking at most one tuple from each subspace lane;
  empty lanes leave their slot blank, which is the goodput loss Fig. 8(b)
  quantifies,
- long keys are batched into separate long-key payloads that bypass switch
  aggregation entirely.

The packer is pure: it knows nothing about sequence numbers or the network.
It drains its lanes into a :class:`PayloadPlan`, whose packet counts are
known at once; the sender builds each payload from the plan, and assigns
its sequence number, when the sliding window admits it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, islice, repeat, zip_longest
from operator import itemgetter, sub
from typing import Any, Iterable, Iterator, MutableSequence, Optional

from repro.core.config import AskConfig
from repro.core.errors import KeyTooLongError
from repro.core.hashing import MEMO_LIMIT
from repro.core.keyspace import KeyClass, KeySpaceLayout


@dataclass(frozen=True, slots=True)
class PackedPayload:
    """One packet's worth of tuples, before transport framing: the key and
    value column of every slot, ``None`` in both for a blank one.  A sender
    holds at most a window of them (slotted: no per-instance dict)."""

    keys: tuple[Optional[bytes], ...]
    values: tuple[Optional[int], ...]
    bitmap: int
    is_long: bool = False


@dataclass
class PackStats:
    """Packing efficiency statistics (drives Fig. 8(b))."""

    tuples_in: int = 0
    short_tuples: int = 0
    medium_tuples: int = 0
    long_tuples: int = 0
    packets: int = 0
    long_packets: int = 0
    blank_slots: int = 0
    #: histogram: occupied slots per normal packet -> packet count
    occupancy_histogram: dict[int, int] = field(default_factory=dict)

    def mean_occupied_slots(self) -> float:
        """Average non-blank slots per (non-long) packet."""
        total = sum(k * v for k, v in self.occupancy_histogram.items())
        count = sum(self.occupancy_histogram.values())
        return total / count if count else 0.0

    def occupancy_cdf(self) -> list[tuple[int, float]]:
        """(occupied slots, cumulative fraction of packets) pairs."""
        count = sum(self.occupancy_histogram.values())
        if not count:
            return []
        acc = 0
        cdf = []
        for slots in sorted(self.occupancy_histogram):
            acc += self.occupancy_histogram[slots]
            cdf.append((slots, acc / count))
        return cdf


class PayloadPlan:
    """The payloads one drain of a packer's lanes stands for, built on demand.

    A plan keeps each lane's keys and values, plus the runs of packets that
    share a bitmap, so its length is known up front.  Iterating it builds
    the payloads in order, one at a time, and every iteration starts afresh
    from the lanes: a sender builds a payload only when its window opens
    the entry, and a rewound job replays the identical sequence by
    iterating again.

    Packet *p* carries the *p*-th tuple of every lane that holds more than
    *p* tuples, and leaves the other lanes' slots blank.  So the lanes are
    transposed, once for the keys and once for the values: one lazy key
    column and one value column per packet slot, and ``zip_longest`` builds
    each packet's key and value tuples, ``None`` where a lane has run out,
    so no object is built per tuple.  Long-key payloads follow, batched up
    to ``num_aas`` tuples per packet (the PktState bitmap width bounds the
    batch).
    """

    __slots__ = ("_keys", "_values", "_runs", "_layout", "_num_slots", "_length")

    def __init__(
        self,
        keys: list[list],
        values: list[MutableSequence[int]],
        runs: list[tuple[int, int]],
        layout: KeySpaceLayout,
        num_slots: int,
    ) -> None:
        self._keys = keys
        self._values = values
        #: (packets, bitmap) in packet order: the bitmap changes only where
        #: a lane runs out.
        self._runs = runs
        self._layout = layout
        self._num_slots = num_slots
        long_packets = -(-len(keys[-1]) // num_slots)
        self._length = sum(count for count, _ in runs) + long_packets

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[PackedPayload]:
        keys, values = self._keys, self._values
        short = self._layout.num_short_slots
        width = self._layout.group_width
        key_columns: list[Iterable] = list(keys[:short])
        value_columns: list[Iterable] = list(values[:short])
        for lane in range(short, len(keys) - 1):
            segments = keys[lane]
            key_columns.extend(map(itemgetter(pos), segments) for pos in range(width))
            # A medium key's value rides on its last segment (§3.2.3).
            value_columns.extend(repeat(0, len(segments)) for _ in range(width - 1))
            value_columns.append(values[lane])
        key_rows = zip_longest(*key_columns)
        value_rows = zip_longest(*value_columns)
        # Iterators all the way down: no Python frame resumes per packet.
        runs = (
            map(
                PackedPayload,
                islice(key_rows, count),
                islice(value_rows, count),
                repeat(bitmap),
            )
            for count, bitmap in self._runs
        )
        longs = map(self._long_payload, range(0, len(keys[-1]), self._num_slots))
        return chain(chain.from_iterable(runs), longs)

    def _long_payload(self, start: int) -> PackedPayload:
        stop = start + self._num_slots
        keys = tuple(self._keys[-1][start:stop])
        values = tuple(self._values[-1][start:stop])
        return PackedPayload(keys, values, (1 << len(keys)) - 1, is_long=True)


class Packer:
    """Queues one sending task's tuples in per-lane lists and drains them
    into payload plans.

    A lane is a short slot, a medium group, or (last) the long keys; it
    holds the queued tuples' key forms in a list and their values in an
    array, about 13 bytes per tuple.
    """

    #: Routing-cache bound: streams usually cycle over a working set far
    #: smaller than this; an adversarial all-unique stream just stops
    #: caching instead of growing without limit.
    _CACHE_LIMIT = MEMO_LIMIT

    def __init__(
        self, config: AskConfig, routes: Optional[dict[bytes, tuple[int, Any]]] = None
    ) -> None:
        self.config = config
        self.layout = KeySpaceLayout(config)
        self.stats = PackStats()
        # Values are masked to ``value_bits``, so a lane keeps them in a C
        # array of the narrowest unsigned type that holds them (4 bytes a
        # value at the default 32 bits, not an 8-byte pointer); values
        # wider than 64 bits stay in a list.
        self._value_code = next(
            (code for code in "IQ" if config.value_bits <= 8 * array(code).itemsize), None
        )
        self._keys, self._values = self._empty_lanes()
        # key -> (lane, form).  ``layout.assign`` is pure and deterministic
        # (classify + pad + partition hash), so its outcome is computed once
        # per distinct key instead of once per tuple: the lane the key's
        # tuples join, and the form they are queued in — the padded key,
        # the medium segments, or the long key itself.  A daemon hands every
        # packer it makes the same memo, so its jobs share it.
        self._routes: dict[bytes, tuple[int, Any]] = {} if routes is None else routes

    def _empty_lanes(self) -> tuple[list[list], list[MutableSequence[int]]]:
        lanes = range(self.layout.num_short_slots + self.layout.num_groups + 1)
        code = self._value_code
        values: list[MutableSequence[int]] = [
            array(code) if code else [] for _ in lanes
        ]
        return [[] for _ in lanes], values

    def _route(self, key: bytes) -> tuple[int, Any]:
        """Compute the routing entry for one key."""
        layout = self.layout
        try:
            assignment = layout.assign(key)
        except KeyTooLongError:
            # Covers both genuinely long keys and the rare full-width keys
            # whose padded form would be ambiguous (AmbiguousKeyError).
            return (len(self._keys) - 1, key)
        if assignment.key_class is KeyClass.SHORT:
            return (assignment.primary_slot, assignment.padded)
        group = layout.group_of_slot(assignment.primary_slot)
        return (layout.num_short_slots + group, layout.segments(assignment.padded))

    def _queued(self) -> tuple[int, int, int]:
        lengths = list(map(len, self._keys))
        short = self.layout.num_short_slots
        return sum(lengths[:short]), sum(lengths[short:-1]), lengths[-1]

    # ------------------------------------------------------------------
    def add(self, key: bytes, value: int) -> None:
        """Queue one key-value tuple."""
        self.add_stream(((key, value),))

    def add_stream(self, stream: Iterable[tuple[bytes, int]]) -> None:
        """Queue every tuple of ``stream``: one loop over locally bound
        state, with the class counters taken from the lane lengths once
        the loop ends."""
        routes = self._routes
        route_of = self._route
        limit = self._CACHE_LIMIT
        mask = self.config.value_mask
        add_key = [lane.append for lane in self._keys]
        add_value = [lane.append for lane in self._values]
        before = self._queued()
        try:
            for key, value in stream:
                route = routes.get(key)
                if route is None:
                    route = route_of(key)
                    if len(routes) < limit:
                        routes[key] = route
                lane, form = route
                # The value first: if masking it raises, neither list grew.
                add_value[lane](value & mask)
                add_key[lane](form)
        finally:
            short, medium, long = map(sub, self._queued(), before)
            stats = self.stats
            stats.short_tuples += short
            stats.medium_tuples += medium
            stats.long_tuples += long
            stats.tuples_in += short + medium + long

    # ------------------------------------------------------------------
    @property
    def pending(self) -> bool:
        return any(self._keys)

    def plan(self) -> PayloadPlan:
        """Drain the lanes into a :class:`PayloadPlan` and count its
        packets into :attr:`stats`.

        Bitmap and occupancy change only where a lane runs out, so they
        are taken from the sorted lane lengths, without building a packet.
        """
        keys, values = self._keys, self._values
        self._keys, self._values = self._empty_lanes()
        num_slots = self.config.num_aas
        short = self.layout.num_short_slots
        width = self.layout.group_width
        # (queued tuples, bitmap bits) per non-empty short slot / group
        lanes = [(len(keys[lane]), 1 << lane) for lane in range(short) if keys[lane]]
        group_bits = ((1 << width) - 1) << short
        for lane in range(short, len(keys) - 1):
            if keys[lane]:
                lanes.append((len(keys[lane]), group_bits))
            group_bits <<= width

        stats = self.stats
        runs: list[tuple[int, int]] = []
        bitmap = 0
        for _, bits in lanes:
            bitmap |= bits
        # The histogram counts *logical* tuples: a medium key occupies m
        # slots but is one key-value tuple (the paper's Fig. 8(b) metric,
        # "non-blank key-value tuples per packet").
        live = len(lanes)
        histogram = stats.occupancy_histogram
        built = 0
        for length, bits in sorted(lanes):
            if length > built:
                count = length - built
                runs.append((count, bitmap))
                stats.packets += count
                stats.blank_slots += count * (num_slots - bitmap.bit_count())
                histogram[live] = histogram.get(live, 0) + count
                built = length
            bitmap ^= bits
            live -= 1
        plan = PayloadPlan(keys, values, runs, self.layout, num_slots)
        stats.long_packets += len(plan) - built  # the long-key payloads
        return plan

    def payloads(self) -> list[PackedPayload]:
        """Drain the lanes into a list of every payload."""
        return list(self.plan())


def pack_stream(
    stream: Iterable[tuple[bytes, int]], config: AskConfig
) -> tuple[list[PackedPayload], PackStats]:
    """Convenience: pack a whole stream at once."""
    packer = Packer(config)
    packer.add_stream(stream)
    payloads = list(packer.payloads())
    return payloads, packer.stats
