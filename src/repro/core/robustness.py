"""Data-integrity and adversarial-input accounting (ingress hardening).

ASK's reliability design (§3.3) assumes the fabric only loses, duplicates,
reorders or delays packets; on Tofino, payload integrity comes for free
from the Ethernet CRC.  The software backends have no such luck: a UDP
datagram can arrive with flipped bits, and a buggy or adversarial sender
can emit frames that decode cleanly yet violate protocol invariants.  This
module is the host/switch side of the integrity layer:

- :class:`RobustnessCounters` — per-reason drop accounting.  Every frame a
  node refuses is *counted*, never silently discarded, so a chaos run can
  reconcile injected corruption against observed drops
  (``drops + quarantines == injected events that reached a decoder``).
- :class:`Quarantine` — a bounded poison-pill dead-letter ring for frames
  that *passed* the integrity checksum but violate protocol invariants
  (only an adversarial or buggy sender produces those).  Bounded so a
  hostile stream cannot exhaust memory; evictions are themselves counted.
- :func:`validate_switch_ingress` / :func:`validate_host_ingress` —
  semantic validation run before a packet touches protocol state.  A
  violation yields a *reason string* (the counter key); ``None`` means the
  packet is structurally sound and may proceed.

The checks are deliberately O(1) per packet (flag-combination set lookup,
integer comparisons, one bitmap shift) so the hot path keeps its
throughput; the deep per-slot invariants (live bit on a blank slot,
partial medium group) stay where they always were — raised as
:class:`~repro.core.errors.ProtocolError` mid-pass — and the ingress
facades convert that raise into a quarantine entry instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.packet import (
    FLAG_ACK,
    FLAG_BYPASS,
    FLAG_DATA,
    FLAG_FIN,
    FLAG_LONG,
    FLAG_SWAP,
    SWAP_CHANNEL_INDEX,
    AskPacket,
)

#: Every flag bit the protocol defines; anything outside is undefined.
DEFINED_FLAG_MASK = (
    FLAG_DATA | FLAG_ACK | FLAG_FIN | FLAG_SWAP | FLAG_LONG | FLAG_BYPASS
)

#: The flag combinations the stack actually emits (sender, switch,
#: receiver).  DATA may carry LONG; DATA and FIN may carry BYPASS while
#: degraded; ACK and SWAP travel alone.  Anything else is a frame no
#: correct implementation builds.
VALID_FLAG_COMBOS = frozenset(
    {
        FLAG_DATA,
        FLAG_DATA | FLAG_LONG,
        FLAG_DATA | FLAG_BYPASS,
        FLAG_DATA | FLAG_LONG | FLAG_BYPASS,
        FLAG_FIN,
        FLAG_FIN | FLAG_BYPASS,
        FLAG_ACK,
        FLAG_SWAP,
    }
)


class RobustnessCounters:
    """Per-reason counters for frames refused at a node's ingress.

    Reasons are short stable strings (``"checksum"``, ``"bad-flags"``,
    ``"channel-index"`` ...); the full vocabulary is the union of the
    codec's :class:`~repro.runtime.codec.CodecError` reasons and the
    validation reasons returned by the ``validate_*_ingress`` functions.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def bump(self, reason: str, n: int = 1) -> None:
        self.counts[reason] = self.counts.get(reason, 0) + n

    def get(self, reason: str) -> int:
        return self.counts.get(reason, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RobustnessCounters({self.counts!r})"


@dataclass(frozen=True)
class QuarantineEntry:
    """One dead-lettered frame: when, why, and the header that identifies
    the (claimed) sender — enough to attribute a poison-pill stream
    without retaining payload references."""

    t_ns: int
    reason: str
    src: str
    dst: str
    task_id: int
    channel_index: int
    seq: int
    flags: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "t_ns": self.t_ns,
            "reason": self.reason,
            "src": self.src,
            "dst": self.dst,
            "task_id": self.task_id,
            "channel_index": self.channel_index,
            "seq": self.seq,
            "flags": self.flags,
        }


class Quarantine:
    """Bounded dead-letter ring for protocol-invariant violators.

    ``admitted`` counts every admission over the node's lifetime;
    ``held()`` is bounded by ``limit`` (oldest entries are evicted, and
    evictions are counted) so a sustained poison-pill stream costs O(1)
    memory.
    """

    __slots__ = ("limit", "admitted", "evicted", "_entries")

    def __init__(self, limit: int = 64) -> None:
        if limit < 1:
            raise ValueError("quarantine limit must be >= 1")
        self.limit = limit
        self.admitted = 0
        self.evicted = 0
        self._entries: List[QuarantineEntry] = []

    def admit(self, entry: QuarantineEntry) -> None:
        self.admitted += 1
        if len(self._entries) >= self.limit:
            del self._entries[0]
            self.evicted += 1
        self._entries.append(entry)

    @property
    def entries(self) -> List[QuarantineEntry]:
        return list(self._entries)

    def held(self) -> int:
        return len(self._entries)

    def summary(self) -> Dict[str, int]:
        return {
            "admitted": self.admitted,
            "evicted": self.evicted,
            "held": len(self._entries),
        }

    def __len__(self) -> int:
        return len(self._entries)


def quarantine_packet(
    counters: RobustnessCounters,
    quarantine: Quarantine,
    now_ns: int,
    reason: str,
    pkt: AskPacket,
) -> None:
    """Dead-letter ``pkt``: count the reason and record the header."""
    counters.bump(reason)
    quarantine.admit(
        QuarantineEntry(
            t_ns=now_ns,
            reason=reason,
            src=pkt.src,
            dst=pkt.dst,
            task_id=pkt.task_id,
            channel_index=pkt.channel_index,
            seq=pkt.seq,
            flags=int(pkt.flags),
        )
    )


# ----------------------------------------------------------------------
# Semantic validation (cheap, pre-state checks)
# ----------------------------------------------------------------------
def _common_violation(pkt: AskPacket, num_aas: int) -> Optional[str]:
    """Checks shared by switch and host ingress.  Returns a reason or None."""
    flags = int(pkt.flags)
    if flags & ~DEFINED_FLAG_MASK:
        return "undefined-flags"
    if flags not in VALID_FLAG_COMBOS:
        return "bad-flag-combination"
    if pkt.task_id < 0:
        return "task-id-range"
    if pkt.seq < 0:
        return "seq-range"
    if flags & FLAG_SWAP:
        if pkt.channel_index != SWAP_CHANNEL_INDEX:
            return "channel-index"
        return None
    bitmap = pkt.bitmap
    if bitmap < 0:
        return "bitmap-range"
    if bitmap:
        # Every live bit must index a real slot; non-LONG frames are also
        # bounded by the channel width (slot position == AA index).
        limit = len(pkt.keys) if flags & FLAG_LONG else min(len(pkt.keys), num_aas)
        if bitmap >> limit:
            return "bitmap-range"
    if not (flags & FLAG_LONG) and len(pkt.keys) > num_aas:
        return "slot-count"
    return None


def validate_switch_ingress(
    pkt: AskPacket, num_aas: int, data_channels_per_host: int
) -> Optional[str]:
    """Validate a packet about to run the ASK switch program.

    Only frames the program would actually process reach this check (ACKs,
    BYPASS and transit traffic are plain-routed and validated at their
    destination host instead).  Returns the drop reason, or ``None``.
    """
    reason = _common_violation(pkt, num_aas)
    if reason is not None:
        return reason
    flags = int(pkt.flags)
    if not flags & FLAG_SWAP and not (
        0 <= pkt.channel_index < data_channels_per_host
    ):
        # The channel index keys per-channel switch state (dedup slots are
        # a bounded resource); a correct sender only uses its configured
        # data channels.
        return "channel-index"
    return None


def validate_host_ingress(
    pkt: AskPacket, num_aas: int, data_channels_per_host: int
) -> Optional[str]:
    """Validate a non-ACK data-plane packet arriving at a host daemon.

    Returns the drop reason, or ``None``.  ACKs keep their existing
    bounds check in :meth:`~repro.core.daemon.HostDaemon.receive`.
    """
    reason = _common_violation(pkt, num_aas)
    if reason is not None:
        return reason
    flags = int(pkt.flags)
    if flags & FLAG_SWAP:
        # A SWAP addressed to a host is a misrouted switch notification.
        return "misrouted-swap"
    if not (0 <= pkt.channel_index < data_channels_per_host):
        # Receive windows are keyed by (src, channel); out-of-range
        # indices would mint unbounded window state.
        return "channel-index"
    return None
