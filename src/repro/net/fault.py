"""Seedable network fault injection.

The ASK reliability mechanism (§3.3 of the paper) must survive packet loss,
duplication, reordering and long delays ("very stale packets").  This module
produces exactly that event space — plus *corruption*, the event the paper
gets for free from the Ethernet CRC but software fabrics do not.  Each
decision is drawn from a dedicated ``random.Random`` stream so a fixed seed
yields a fixed fault schedule.

Corruption is injected in backend-native form: the asyncio fabric flips
bits in the encoded datagram (:func:`corrupt_bytes`) and lets the codec's
CRC32 trailer catch them; the sim fabric moves packet *objects*, so it
mutates one header/payload field on a copy (:func:`corrupt_packet_fields`)
and wraps it in :class:`CorruptedFrame` — the in-object stand-in for "the
frame's checksum no longer matches", which integrity-checking ingress
drops and integrity-disabled ingress unwraps and consumes (the negative
control: without a checksum, corruption silently poisons the aggregate).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst-loss chain (Gilbert–Elliott model).

    The channel alternates between a *good* and a *bad* state; each packet
    first advances the chain (one transition draw), then suffers the loss
    rate of the state it landed in.  Correlated loss bursts — the pattern
    that actually stresses retransmission timers, which i.i.d. loss
    understates — emerge when ``p_bad_good`` is small.

    Parameters
    ----------
    p_good_bad / p_bad_good:
        Per-packet transition probabilities between the two states.
    loss_good / loss_bad:
        Loss probability while in each state (classic Gilbert: 0 in good).
    """

    p_good_bad: float = 0.01
    p_bad_good: float = 0.2
    loss_good: float = 0.0
    loss_bad: float = 0.5

    def __post_init__(self) -> None:
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    @property
    def is_lossless(self) -> bool:
        return self.loss_good == 0.0 and self.loss_bad == 0.0


@dataclass
class FaultDecision:
    """The fate of one transmitted packet."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    extra_delay_ns: int = 0
    duplicate_delay_ns: int = 0


#: Shared outcomes for the two alternatives that carry no per-packet state.
#: Callers must treat decisions as read-only.
_CLEAN = FaultDecision()
_DROP = FaultDecision(drop=True)


@dataclass
class FaultModel:
    """Per-packet fault distribution.

    Parameters
    ----------
    loss_rate:
        Probability a packet disappears in flight.
    duplicate_rate:
        Probability a second copy of the packet is delivered (after
        ``duplicate_delay_ns`` drawn uniformly up to ``max_extra_delay_ns``).
    reorder_rate:
        Probability a packet is held back by a uniform extra delay up to
        ``max_extra_delay_ns``, which lets later packets overtake it.
    max_extra_delay_ns:
        Upper bound for reorder/duplicate delays.  Choosing this larger than
        the sender window round-trip exercises the paper's "stale packet"
        corner case (§3.3).
    seed:
        RNG seed; two models with the same seed produce identical schedules.
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    max_extra_delay_ns: int = 50_000
    seed: int = 0
    #: Optional Gilbert–Elliott burst-loss chain.  When set it *replaces*
    #: the i.i.d. ``loss_rate`` draw (state transition + per-state loss);
    #: when ``None`` the draw sequence is bit-identical to before the
    #: field existed, preserving every existing seeded schedule.
    burst: Optional[GilbertElliott] = None
    #: Probability a surviving packet is delivered *corrupted* (bit flips
    #: on the wire).  Like ``burst``, a zero rate draws nothing, so every
    #: pre-existing seeded schedule stays bit-identical.
    corrupt_rate: float = 0.0
    _rng: random.Random = field(init=False, repr=False)
    _burst_bad: bool = field(init=False, repr=False, default=False)

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        self._rng = random.Random(self.seed)
        self._burst_bad = False

    @classmethod
    def reliable(cls) -> "FaultModel":
        """A fault model that never injects faults."""
        return cls()

    def derive(self, label: str) -> "FaultModel":
        """A child model with the same rates and a seed derived stably
        from ``(seed, label)``.

        Topologies hand every link its own child keyed by the link's
        *name* (``"h0->switch"``, ``"core:r0->r1"``), so a link's fault
        stream depends only on the template seed and on which link it is
        — never on how many links were built before it.  Attaching hosts
        in a different order, or adding racks to a fabric in a different
        order, leaves every existing link's loss sequence untouched.

        (The seed implementation copied the template per link and salted
        the seed with a construction counter, which both forked the
        template's RNG state and made every stream depend on wiring
        order.)
        """
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode(), digest_size=8
        ).digest()
        return FaultModel(
            loss_rate=self.loss_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            max_extra_delay_ns=self.max_extra_delay_ns,
            seed=int.from_bytes(digest, "big"),
            burst=self.burst,
            corrupt_rate=self.corrupt_rate,
        )

    @property
    def is_reliable(self) -> bool:
        return (
            self.loss_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.reorder_rate == 0.0
            and self.corrupt_rate == 0.0
            and (self.burst is None or self.burst.is_lossless)
        )

    def decide(self) -> FaultDecision:
        """Draw the fate of the next packet.

        The RNG draw order is part of the determinism contract: each rate
        draws at most once per packet, in loss → corrupt → reorder →
        duplicate order (zero rates draw nothing, so enabling a new fault
        class never perturbs schedules that do not use it).  A corrupt
        decision returns immediately — a corrupted frame is never also
        duplicated, keeping injected-corruption accounting one-to-one with
        delivered-corrupt frames.  The common no-fault outcome returns a
        shared decision object (which callers only read) to keep the
        per-packet path allocation-free.
        """
        rng = self._rng
        if self.burst is not None:
            burst = self.burst
            flip = burst.p_good_bad if not self._burst_bad else burst.p_bad_good
            if rng.random() < flip:
                self._burst_bad = not self._burst_bad
            loss = burst.loss_bad if self._burst_bad else burst.loss_good
            if loss and rng.random() < loss:
                return _DROP
        elif self.loss_rate and rng.random() < self.loss_rate:
            return _DROP
        if self.corrupt_rate and rng.random() < self.corrupt_rate:
            return FaultDecision(corrupt=True)
        extra_delay = 0
        if self.reorder_rate and rng.random() < self.reorder_rate:
            extra_delay = rng.randint(1, self.max_extra_delay_ns)
        if self.duplicate_rate and rng.random() < self.duplicate_rate:
            return FaultDecision(
                duplicate=True,
                extra_delay_ns=extra_delay,
                duplicate_delay_ns=rng.randint(1, self.max_extra_delay_ns),
            )
        if extra_delay:
            return FaultDecision(extra_delay_ns=extra_delay)
        return _CLEAN

    # -- corruption payload helpers (draw from the same seeded stream) --
    def corrupt_payload(self, data: bytes) -> bytes:
        """Flip bits in an encoded datagram (asyncio-backend corruption)."""
        return corrupt_bytes(data, self._rng)

    def corrupt_fields(self, packet: Any) -> Any:
        """Mutate one field on a packet copy (sim-backend corruption)."""
        return corrupt_packet_fields(packet, self._rng)


class LinkSlowdown:
    """A gray-failure latency window on one link.

    While active, every packet crossing the link pays an extra delay of
    ``latency_ns * (multiplier - 1)`` plus a uniform jitter draw up to
    ``jitter_ns`` — the link gets *slower*, never lossy, which is exactly
    the failure class heartbeat leases cannot see (the node stays alive).

    Each instance owns a dedicated ``random.Random`` stream seeded from
    ``blake2b(f"{seed_label}:{link_name}")``, the same stable-naming rule
    :meth:`FaultModel.derive` uses: the jitter sequence depends only on
    the chaos seed and on *which link* this is, never on construction
    order or on how many other links are slowed.  Draws happen only while
    the window is active, so runs without ``slow`` events — and every
    pre-existing seeded schedule — are bit-identical to before this class
    existed.  Instances persist across windows (the fabric keeps one per
    link name), so a second ``slow`` window on the same link continues
    the stream rather than restarting it.
    """

    __slots__ = ("multiplier", "jitter_ns", "active", "packets_slowed", "_rng")

    def __init__(
        self,
        seed_label: str,
        link_name: str,
        multiplier: float = 4.0,
        jitter_ns: int = 0,
    ) -> None:
        if multiplier < 1.0:
            raise ValueError(f"slowdown multiplier must be >= 1, got {multiplier}")
        if jitter_ns < 0:
            raise ValueError(f"jitter_ns must be >= 0, got {jitter_ns}")
        self.multiplier = multiplier
        self.jitter_ns = jitter_ns
        self.active = False
        self.packets_slowed = 0
        digest = hashlib.blake2b(
            f"{seed_label}:{link_name}".encode(), digest_size=8
        ).digest()
        self._rng = random.Random(int.from_bytes(digest, "big"))

    def extra_ns(self, latency_ns: int) -> int:
        """Extra in-flight delay for one packet (0 when the window is
        closed; draws from the stream only while it is open)."""
        if not self.active:
            return 0
        self.packets_slowed += 1
        extra = int(latency_ns * (self.multiplier - 1.0))
        if self.jitter_ns:
            extra += self._rng.randint(0, self.jitter_ns)
        return extra


def corrupt_bytes(data: bytes, rng: random.Random) -> bytes:
    """Return ``data`` with 1–3 distinct bit flips (never equal to input).

    Models on-the-wire corruption of a UDP payload.  Flips are drawn from
    ``rng`` so a seeded fault schedule also fixes *which* bits break.

    An empty payload has no bits to flip: it is returned unchanged and
    nothing is drawn from ``rng``, so the rest of a seeded fault schedule
    is unaffected by the degenerate datagram.
    """
    if not data:
        return data
    n_bits = rng.randint(1, min(3, len(data) * 8))
    mutated = bytearray(data)
    for position in rng.sample(range(len(data) * 8), n_bits):
        mutated[position >> 3] ^= 1 << (position & 7)
    return bytes(mutated)


#: Field mutators for in-object corruption.  Each takes ``(fields, rng)``
#: where ``fields`` is the keyword dict about to rebuild the packet, and
#: perturbs exactly one field the aggregation protocol depends on.
def _mutate_seq(fields: dict, rng: random.Random) -> None:
    fields["seq"] = fields["seq"] ^ (1 << rng.randrange(0, 40))


def _mutate_bitmap(fields: dict, rng: random.Random) -> None:
    fields["bitmap"] = fields["bitmap"] ^ (1 << rng.randrange(0, 64))


def _mutate_task_id(fields: dict, rng: random.Random) -> None:
    fields["task_id"] = fields["task_id"] ^ (1 << rng.randrange(0, 63))


def _mutate_channel(fields: dict, rng: random.Random) -> None:
    fields["channel_index"] = fields["channel_index"] ^ (1 << rng.randrange(0, 8))


def _mutate_flags(fields: dict, rng: random.Random) -> None:
    fields["flags"] = int(fields["flags"]) ^ (1 << rng.randrange(0, 8))


def _mutate_value(fields: dict, rng: random.Random) -> None:
    live = [i for i, key in enumerate(fields["keys"]) if key is not None]
    if not live:
        _mutate_bitmap(fields, rng)
        return
    idx = live[rng.randrange(len(live))]
    values = list(fields["values"])
    values[idx] ^= 1 << rng.randrange(0, 64)
    fields["values"] = tuple(values)


_FIELD_MUTATORS = (
    _mutate_seq,
    _mutate_bitmap,
    _mutate_task_id,
    _mutate_channel,
    _mutate_flags,
    _mutate_value,
)


def corrupt_packet_fields(packet: Any, rng: random.Random) -> Any:
    """Return a *copy* of ``packet`` with exactly one field bit-flipped.

    The sim-backend analogue of :func:`corrupt_bytes`: the discrete-event
    fabric never serializes, so corruption mutates the object fields the
    wire bytes would have carried.  The original packet is untouched (the
    sender still holds it for retransmission).
    """
    fields = dict(
        flags=int(packet.flags),
        task_id=packet.task_id,
        src=packet.src,
        dst=packet.dst,
        channel_index=packet.channel_index,
        seq=packet.seq,
        bitmap=packet.bitmap,
        keys=packet.keys,
        values=packet.values,
        ecn=packet.ecn,
    )
    _FIELD_MUTATORS[rng.randrange(len(_FIELD_MUTATORS))](fields, rng)
    fields["flags"] = int(fields["flags"]) & 0xFF
    return type(packet)(**fields)


class CorruptedFrame:
    """A packet whose (notional) frame checksum no longer matches.

    The sim fabric's stand-in for flipped wire bits: it delivers the
    mutated packet wrapped in this marker.  Integrity-checking ingress
    treats the wrapper exactly like a CRC32 failure — drop and count;
    integrity-disabled ingress unwraps it and consumes the mutated packet
    (demonstrating why the checksum exists).

    Delegates the accounting surface the fabric touches (sizes, addresses)
    and deliberately answers ``with_ecn`` with itself so an ECN-marking
    link cannot silently replace the wrapper with a clean copy.
    """

    __slots__ = ("packet",)

    def __init__(self, packet: Any) -> None:
        self.packet = packet

    def with_ecn(self) -> "CorruptedFrame":
        return self

    def __reduce__(self) -> tuple:
        return CorruptedFrame, (self.packet,)

    @property
    def src(self) -> Any:
        return self.packet.src

    @property
    def dst(self) -> Any:
        return self.packet.dst

    @property
    def ecn(self) -> Any:
        return self.packet.ecn

    def frame_bytes(self) -> int:
        return int(self.packet.frame_bytes())

    def wire_bytes(self) -> int:
        return int(self.packet.wire_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorruptedFrame({self.packet!r})"
