"""The per-tuple packer, frozen as the oracle of :class:`repro.core.packer.Packer`.

``add`` routes one tuple per call and ``payloads`` builds each packet by
scanning every subspace queue and popping at most one tuple from each
into a row of (key, value) slots.  The product packer queues a whole
stream in one loop into per-lane lists and drains them into a payload
plan, which builds each payload's key and value columns by transposing
its lanes; ``tests/core/test_packer_oracle.py`` requires both to produce
the same payload list, compared on each payload's (keys, values) rows,
and the same :class:`~repro.core.packer.PackStats`, field by field.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

from repro.core.config import AskConfig
from repro.core.errors import KeyTooLongError
from repro.core.keyspace import KeyClass, KeySpaceLayout
from repro.core.packer import PackedPayload, PackStats

#: One packet slot: (padded key or segment, value), or ``None`` if blank.
SlotRow = Optional[tuple[bytes, int]]


def _payload(rows: list[SlotRow], bitmap: int, is_long: bool = False) -> PackedPayload:
    """Split a row of slots into the payload's key and value columns."""
    keys = tuple(None if row is None else row[0] for row in rows)
    values = tuple(None if row is None else row[1] for row in rows)
    return PackedPayload(keys, values, bitmap, is_long)


class ReferencePacker:
    """Builds multi-key payloads one tuple and one queue scan at a time."""

    _CACHE_LIMIT = 65536

    def __init__(self, config: AskConfig) -> None:
        self.config = config
        self.layout = KeySpaceLayout(config)
        self.stats = PackStats()
        self._short: list[deque] = [deque() for _ in range(self.layout.num_short_slots)]
        self._groups: list[deque] = [deque() for _ in range(self.layout.num_groups)]
        self._long: deque = deque()
        self._routes: dict[bytes, tuple] = {}

    _SHORT, _MEDIUM, _LONG = 0, 1, 2

    def _route(self, key: bytes) -> tuple:
        try:
            assignment = self.layout.assign(key)
        except KeyTooLongError:
            return (self._LONG,)
        if assignment.key_class is KeyClass.SHORT:
            return (self._SHORT, assignment.primary_slot, assignment.padded)
        group = self.layout.group_of_slot(assignment.primary_slot)
        segments = self.layout.segments(assignment.padded)
        return (self._MEDIUM, group, segments)

    def add(self, key: bytes, value: int) -> None:
        self.stats.tuples_in += 1
        value &= self.config.value_mask
        route = self._routes.get(key)
        if route is None:
            route = self._route(key)
            if len(self._routes) < self._CACHE_LIMIT:
                self._routes[key] = route
        kind = route[0]
        if kind == self._SHORT:
            self.stats.short_tuples += 1
            self._short[route[1]].append((route[2], value))
        elif kind == self._MEDIUM:
            self.stats.medium_tuples += 1
            self._groups[route[1]].append((route[2], value))
        else:
            self.stats.long_tuples += 1
            self._long.append((key, value))

    def add_stream(self, stream: Iterable[tuple[bytes, int]]) -> None:
        for key, value in stream:
            self.add(key, value)

    @property
    def pending(self) -> bool:
        return any(self._short) or any(self._groups) or bool(self._long)

    def payloads(self) -> Iterator[PackedPayload]:
        num_slots = self.config.num_aas
        while any(self._short) or any(self._groups):
            slots: list[SlotRow] = [None] * num_slots
            bitmap = 0
            tuples_in_packet = 0
            for index, queue in enumerate(self._short):
                if not queue:
                    continue
                padded, value = queue.popleft()
                slots[index] = (padded, value)
                bitmap |= 1 << index
                tuples_in_packet += 1
            for group, queue in enumerate(self._groups):
                if not queue:
                    continue
                segments, value = queue.popleft()
                group_slots = self.layout.group_slots(group)
                last = len(group_slots) - 1
                for pos, slot_index in enumerate(group_slots):
                    slots[slot_index] = (segments[pos], value if pos == last else 0)
                    bitmap |= 1 << slot_index
                tuples_in_packet += 1
            self.stats.packets += 1
            self.stats.blank_slots += num_slots - bitmap.bit_count()
            self.stats.occupancy_histogram[tuples_in_packet] = (
                self.stats.occupancy_histogram.get(tuples_in_packet, 0) + 1
            )
            yield _payload(slots, bitmap)

        while self._long:
            batch: list[SlotRow] = []
            while self._long and len(batch) < num_slots:
                batch.append(self._long.popleft())
            bitmap = (1 << len(batch)) - 1
            self.stats.long_packets += 1
            yield _payload(batch, bitmap, is_long=True)
