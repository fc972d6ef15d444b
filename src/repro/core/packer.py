"""Sender-side packet construction (§3.2).

The packer turns a key-value stream into multi-key payloads:

- every key is classified (short / medium / long) and, via the ordered
  key-space partition, queued for its dedicated packet slot or coalesced
  group — so one key always travels in the same slot and is always handled
  by the same AA (no single-key-multiple-spot waste),
- payloads are built by taking at most one tuple from each subspace queue;
  empty queues leave their slot blank, which is the goodput loss Fig. 8(b)
  quantifies,
- long keys are batched into separate long-key payloads that bypass switch
  aggregation entirely.

The packer is pure: it knows nothing about sequence numbers or the network.
The sender assigns sequence numbers when payloads enter the sliding window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, starmap, zip_longest
from operator import sub
from typing import Iterable, Optional

from repro.core.config import AskConfig
from repro.core.errors import KeyTooLongError
from repro.core.hashing import MEMO_LIMIT
from repro.core.keyspace import KeyClass, KeySpaceLayout
from repro.core.packet import Slot


@dataclass(frozen=True)
class PackedPayload:
    """One packet's worth of tuples, before transport framing."""

    slots: tuple[Optional[Slot], ...]
    bitmap: int
    is_long: bool = False

    @property
    def tuple_slots(self) -> int:
        """Occupied slots (the paper's "non-blank key-value tuples")."""
        return self.bitmap.bit_count()


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


class Packer:
    """Builds multi-key payloads for one sending task."""

    #: Routing-cache bound: streams usually cycle over a working set far
    #: smaller than this; an adversarial all-unique stream just stops
    #: caching instead of growing without limit.
    _CACHE_LIMIT = MEMO_LIMIT

    def __init__(self, config: AskConfig) -> None:
        self.config = config
        self.layout = KeySpaceLayout(config)
        self.stats = PackStats()
        # One queue per short slot, per medium group, and for long keys.
        # Routes hold the queues' bound ``append``s, so the lists are only
        # ever cleared in place, never rebound.
        self._short: list[list] = [[] for _ in range(self.layout.num_short_slots)]
        self._groups: list[list] = [[] for _ in range(self.layout.num_groups)]
        self._long: list = []
        # key -> (append, form).  ``layout.assign`` is pure and
        # deterministic (classify + pad + partition hash), so its outcome is
        # computed once per distinct key instead of once per tuple: the
        # queue the key's tuples join, and the form they are queued in —
        # the padded key, the medium segments, or the long key itself.
        self._routes: dict[bytes, tuple] = {}

    def _route(self, key: bytes) -> tuple:
        """Compute the routing entry for one key."""
        try:
            assignment = self.layout.assign(key)
        except KeyTooLongError:
            # Covers both genuinely long keys and the rare full-width keys
            # whose padded form would be ambiguous (AmbiguousKeyError).
            return (self._long.append, key)
        if assignment.key_class is KeyClass.SHORT:
            return (self._short[assignment.primary_slot].append, assignment.padded)
        group = self.layout.group_of_slot(assignment.primary_slot)
        return (self._groups[group].append, self.layout.segments(assignment.padded))

    def _queued(self) -> tuple[int, int, int]:
        return (
            sum(map(len, self._short)),
            sum(map(len, self._groups)),
            len(self._long),
        )

    # ------------------------------------------------------------------
    def add(self, key: bytes, value: int) -> None:
        """Queue one key-value tuple."""
        self.add_stream(((key, value),))

    def add_stream(self, stream: Iterable[tuple[bytes, int]]) -> None:
        """Queue every tuple of ``stream``: one loop over locally bound
        state, with the class counters taken from the queue lengths once
        the loop ends."""
        routes = self._routes
        route_of = self._route
        limit = self._CACHE_LIMIT
        mask = self.config.value_mask
        before = self._queued()
        try:
            for key, value in stream:
                route = routes.get(key)
                if route is None:
                    route = route_of(key)
                    if len(routes) < limit:
                        routes[key] = route
                route[0]((route[1], value & mask))
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
        return (
            any(self._short)
            or any(self._groups)
            or bool(self._long)
        )

    def payloads(self) -> list[PackedPayload]:
        """Drain the queues into payloads.

        Packet *p* carries the *p*-th tuple of every queue that holds more
        than *p* tuples, and leaves the other queues' slots blank.  So the
        queues are transposed: one :class:`Slot` column per packet slot,
        and ``zip_longest`` builds each packet's slot tuple.  Bitmap and
        occupancy change only where a queue runs out, so they are taken
        from the sorted queue lengths.  Long-key payloads follow, batched
        up to ``num_aas`` tuples per packet (the PktState bitmap width
        bounds the batch).
        """
        num_slots = self.config.num_aas
        stats = self.stats
        columns: list[list[Slot]] = []
        # (queued tuples, bitmap bits) per non-empty short slot / group
        lanes: list[tuple[int, int]] = []
        for index, queue in enumerate(self._short):
            if queue:
                lanes.append((len(queue), 1 << index))
            columns.append(list(starmap(Slot, queue)))
            queue.clear()
        width = self.layout.group_width
        group_bits = ((1 << width) - 1) << self.layout.num_short_slots
        for queue in self._groups:
            if queue:
                lanes.append((len(queue), group_bits))
            # A medium key's value rides on its last segment (§3.2.3).
            for pos in range(width - 1):
                columns.append([Slot(segments[pos], 0) for segments, _ in queue])
            columns.append([Slot(segments[-1], value) for segments, value in queue])
            queue.clear()
            group_bits <<= width

        out: list[PackedPayload] = []
        rows = zip_longest(*columns)
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
                out.extend([PackedPayload(row, bitmap) for row in islice(rows, count)])
                stats.packets += count
                stats.blank_slots += count * (num_slots - bitmap.bit_count())
                histogram[live] = histogram.get(live, 0) + count
                built = length
            bitmap ^= bits
            live -= 1

        queue = self._long
        for start in range(0, len(queue), num_slots):
            batch = tuple(starmap(Slot, queue[start : start + num_slots]))
            out.append(PackedPayload(batch, (1 << len(batch)) - 1, is_long=True))
            stats.long_packets += 1
        queue.clear()
        return out


def pack_stream(
    stream: Iterable[tuple[bytes, int]], config: AskConfig
) -> tuple[list[PackedPayload], PackStats]:
    """Convenience: pack a whole stream at once."""
    packer = Packer(config)
    packer.add_stream(stream)
    payloads = list(packer.payloads())
    return payloads, packer.stats
