"""Key classification and ordered key-space partitioning (§3.2.2–3.2.3).

The whole key space is first split by length into *short* (fits one
aggregator kPart), *medium* (fits a coalesced group of ``m`` adjacent AAs)
and *long* (bypasses the switch entirely).  Short keys are then partitioned
over the short-key AAs and medium keys over the medium-key groups with the
uniform hash ``F`` — the "ordered key-space partition" that guarantees a key
always occupies the same packet slot and therefore the same AA, avoiding the
single-key-multiple-spot problem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.config import AskConfig
from repro.core.errors import KeyTooLongError
from repro.core.hashing import partition_hash

#: Terminator byte appended before zero padding.  Padding with plain zeros
#: would alias ``b"ab"`` with ``b"ab\x00"``; the 0x80 terminator (the same
#: trick as SHA padding) removes that ambiguity for every key shorter than
#: the slot.  A key that exactly fills the slot is stored verbatim — the
#: hardware has no room for a terminator there, a limitation shared with the
#: paper's prototype.
PAD_TERMINATOR = 0x80


class KeyClass(enum.Enum):
    """Where a key is aggregated."""

    SHORT = "short"  #: one aggregator (key ≤ n bits)
    MEDIUM = "medium"  #: one coalesced group of m aggregators (§3.2.3)
    LONG = "long"  #: bypasses the switch, aggregated at the host receiver


def classify_key(key: bytes, config: AskConfig) -> KeyClass:
    """Classify ``key`` by length against the configured geometry."""
    if len(key) <= config.key_bytes:
        return KeyClass.SHORT
    if config.medium_key_groups and len(key) <= config.medium_key_bytes:
        return KeyClass.MEDIUM
    return KeyClass.LONG


class AmbiguousKeyError(KeyTooLongError):
    """A full-width key collides with the padded form of a shorter key.

    A key of exactly ``width`` bytes is stored verbatim; if it happens to
    end with ``0x80`` followed only by zeros it is indistinguishable from a
    shorter key's padded form, so the packer rejects it up front (such keys
    must be treated as long keys by the application plugin).
    """


def pad_key(key: bytes, width: int) -> bytes:
    """Pad ``key`` to ``width`` bytes with a 0x80 terminator + zeros.

    Raises :class:`AmbiguousKeyError` for the (pathological) full-width keys
    whose verbatim form would alias a padded shorter key.
    """
    if len(key) > width:
        raise KeyTooLongError(f"key of {len(key)} bytes exceeds width {width}")
    if len(key) == width:
        stripped = key.rstrip(b"\x00")
        if stripped and stripped[-1] == PAD_TERMINATOR:
            raise AmbiguousKeyError(
                f"full-width key {key!r} aliases the padded form of "
                f"{stripped[:-1]!r}; route it as a long key instead"
            )
        return key
    return key + bytes([PAD_TERMINATOR]) + b"\x00" * (width - len(key) - 1)


def unpad_key(padded: bytes) -> bytes:
    """Invert :func:`pad_key` on a stored key segment."""
    stripped = padded.rstrip(b"\x00")
    if stripped and stripped[-1] == PAD_TERMINATOR:
        return stripped[:-1]
    return padded


@dataclass(frozen=True)
class SlotAssignment:
    """The packet slots a key occupies and its padded wire form.

    ``slots`` is a single index for short keys and the ``m`` consecutive
    indices of the coalesced group for medium keys.  ``padded`` is the exact
    byte string compared by the switch (and split into per-slot segments for
    medium keys).
    """

    key_class: KeyClass
    slots: tuple[int, ...]
    padded: bytes

    @property
    def primary_slot(self) -> int:
        return self.slots[0]


class KeySpaceLayout:
    """Maps keys to packet slots / AAs for one configuration.

    The slot map (N = ``num_aas``, k groups of m medium slots at the end)::

        slot:   0 .. S-1            S .. S+m-1   ...   N-m .. N-1
                short subspaces     group 0      ...   group k-1

    The layout is pure and deterministic: it is safe to instantiate
    independently at every sender and at the switch, which is exactly how
    the paper distributes the addressing logic (sender-assisted addressing).
    """

    def __init__(self, config: AskConfig) -> None:
        self.config = config
        self.num_short_slots = config.num_short_slots
        self.num_groups = config.medium_key_groups
        self.group_width = config.medium_group_width

    # ------------------------------------------------------------------
    def group_slots(self, group: int) -> tuple[int, ...]:
        """Packet-slot indices of medium group ``group``."""
        if not 0 <= group < self.num_groups:
            raise IndexError(f"no medium group {group}")
        base = self.num_short_slots + group * self.group_width
        return tuple(range(base, base + self.group_width))

    def slot_kind(self, slot: int) -> KeyClass:
        """Whether packet slot ``slot`` carries short keys or a medium segment."""
        if not 0 <= slot < self.config.num_aas:
            raise IndexError(f"slot {slot} out of range")
        return KeyClass.SHORT if slot < self.num_short_slots else KeyClass.MEDIUM

    def group_of_slot(self, slot: int) -> int:
        """Medium group that owns ``slot`` (which must be a medium slot)."""
        if self.slot_kind(slot) is not KeyClass.MEDIUM:
            raise ValueError(f"slot {slot} is a short-key slot")
        return (slot - self.num_short_slots) // self.group_width

    # ------------------------------------------------------------------
    def assign(self, key: bytes) -> SlotAssignment:
        """Assign ``key`` to its slots (§3.2.2), raising for long keys.

        Long keys are not assignable to the switch; callers must check
        :func:`classify_key` first (the packer routes them to the long-key
        side channel).
        """
        key_class = classify_key(key, self.config)
        if key_class is KeyClass.SHORT:
            try:
                padded = pad_key(key, self.config.key_bytes)
            except AmbiguousKeyError:
                # A full-width short key that would alias padded forms is
                # promoted to the medium space where padding is unambiguous.
                if not self.num_groups:
                    raise
                key_class = KeyClass.MEDIUM
            else:
                slot = partition_hash(key) % self.num_short_slots
                return SlotAssignment(key_class, (slot,), padded)
        if key_class is KeyClass.MEDIUM:
            group = partition_hash(key) % self.num_groups
            padded = pad_key(key, self.config.medium_key_bytes)
            return SlotAssignment(key_class, self.group_slots(group), padded)
        raise KeyTooLongError(
            f"key of {len(key)} bytes cannot be placed on the switch "
            f"(medium limit {self.config.medium_key_bytes}); long keys bypass "
            "the switch"
        )

    def segments(self, padded: bytes) -> tuple[bytes, ...]:
        """Split a padded medium key into its per-AA segments."""
        width = self.config.key_bytes
        if len(padded) != self.config.medium_key_bytes:
            raise ValueError(
                f"padded medium key must be {self.config.medium_key_bytes} bytes"
            )
        return tuple(padded[i : i + width] for i in range(0, len(padded), width))
