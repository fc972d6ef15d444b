"""The seed sender and receiver windows, frozen as the oracles of
:class:`repro.transport.window.SlidingWindow` and
:class:`repro.transport.reliability.ReceiveWindow`.

The product windows find ``base`` and the duplicate record in O(1); the
seed scanned every in-flight entry and rebuilt its ``_seen`` set.
``tests/transport/test_hotpath_equivalence.py`` requires the same
accept/duplicate verdicts and window states over random arrival streams
and open/ack interleavings.  Do not "fix" them: one seed quirk —
``ReferenceReceiveWindow`` never prunes while ``floor == 0``, so seq 0
lingers forever — is kept on purpose; it wastes memory but cannot change a
decision, because the stale guard fires before the ``_seen`` lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.transport.window import WindowEntry


@dataclass
class ReferenceSlidingWindow:
    """Seed sender window: ``base`` is a ``min()`` scan over all in-flight
    entries, re-run by ``can_send()`` on every admission."""

    size: int
    next_seq: int = 0
    _entries: dict[int, WindowEntry] = field(default_factory=dict)

    @property
    def base(self) -> int:
        if not self._entries:
            return self.next_seq
        return min(self._entries)

    @property
    def in_flight(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def can_send(self) -> bool:
        return self.next_seq < self.base + self.size

    def open(self, payload: Any) -> WindowEntry:
        if not self.can_send():
            raise RuntimeError(
                f"window full: base={self.base}, next={self.next_seq}, W={self.size}"
            )
        entry = WindowEntry(seq=self.next_seq, payload=payload)
        self._entries[entry.seq] = entry
        self.next_seq += 1
        return entry

    def get(self, seq: int) -> Optional[WindowEntry]:
        return self._entries.get(seq)

    def ack(self, seq: int) -> Optional[WindowEntry]:
        entry = self._entries.pop(seq, None)
        if entry is not None:
            entry.acked = True
        return entry

    def outstanding(self) -> list[WindowEntry]:
        return [self._entries[s] for s in sorted(self._entries)]


class ReferenceReceiveWindow:
    """Seed receiver dedup: explicit ``_seen`` set, rebuilt in full on every
    in-order arrival (and never pruned while ``floor == 0``)."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.max_seq = -1
        self._seen: set[int] = set()
        self.duplicates = 0
        self.accepted = 0

    def is_new(self, seq: int) -> bool:
        if seq <= self.max_seq - self.window:
            self.duplicates += 1
            return False
        if seq in self._seen:
            self.duplicates += 1
            return False
        self._seen.add(seq)
        if seq > self.max_seq:
            self.max_seq = seq
            floor = self.max_seq - self.window
            if floor > 0:
                self._seen = {s for s in self._seen if s > floor}
        self.accepted += 1
        return True
