"""The sender sliding window (§3.3, "Host Sender").

The window admits sequence number ``s`` only while ``s < base + W`` where
``base`` is the lowest unacknowledged sequence.  This bounds the *span* of
in-flight packets to ``W``, which is precisely the property the switch's
compact ``seen`` array and stale-packet guard rely on: any packet the sender
can legally (re)transmit satisfies ``seq > max_seq - W``.

``base`` is maintained incrementally: sequence numbers are assigned
contiguously, so when the base entry is ACKed the new base is found by
walking forward over already-ACKed (hole) positions.  Each position is
crossed at most once over the channel's lifetime, making admission control
— ``can_send()`` runs on **every** packet the channel pumps — amortized
O(1) instead of the seed's ``min()`` scan over all W in-flight entries
(frozen as ``ReferenceSlidingWindow`` in ``tests/oracles/windows.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class WindowEntry:
    """Book-keeping for one in-flight packet."""

    seq: int
    payload: Any
    first_sent_ns: int = 0
    last_sent_ns: int = 0
    transmissions: int = 0
    acked: bool = False
    timer: Any = None  #: the pending retransmit Event, if any


@dataclass
class SlidingWindow:
    """Sequence-number admission control for one data channel.

    The sequence space is continuous for the lifetime of the channel (ASK
    reuses persistent connections across aggregation tasks to bound switch
    state, §3.3), so there is exactly one :class:`SlidingWindow` per data
    channel, not per task.
    """

    size: int
    next_seq: int = 0
    _entries: dict[int, WindowEntry] = field(default_factory=dict)
    _base: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._base = self.next_seq

    @property
    def base(self) -> int:
        """Lowest unacknowledged sequence (== next_seq when idle)."""
        return self._base

    @property
    def in_flight(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def can_send(self) -> bool:
        """True when a new sequence number may enter the network."""
        return self.next_seq < self._base + self.size

    def open(self, payload: Any) -> WindowEntry:
        """Admit a new packet, assigning it the next sequence number."""
        if not self.can_send():
            raise RuntimeError(
                f"window full: base={self._base}, next={self.next_seq}, W={self.size}"
            )
        entry = WindowEntry(seq=self.next_seq, payload=payload)
        self._entries[entry.seq] = entry
        self.next_seq += 1
        return entry

    def get(self, seq: int) -> Optional[WindowEntry]:
        return self._entries.get(seq)

    def ack(self, seq: int) -> Optional[WindowEntry]:
        """Process an ACK.  Returns the entry on first ACK, None on
        duplicates or ACKs for already-closed sequences (both normal: the
        switch and the receiver may each ACK the same packet)."""
        entry = self._entries.pop(seq, None)
        if entry is None:
            return None
        entry.acked = True
        if seq == self._base:
            # Advance over the hole left by this ACK plus any sequences
            # that were ACKed out of order earlier.  Every position is
            # crossed exactly once, so the walk is amortized O(1) per ACK.
            base = self._base + 1
            entries = self._entries
            next_seq = self.next_seq
            while base < next_seq and base not in entries:
                base += 1
            self._base = base
        return entry

    def outstanding(self) -> list[WindowEntry]:
        """Unacked entries in sequence order."""
        return [self._entries[s] for s in sorted(self._entries)]
