"""Exception hierarchy for the ASK reproduction.

Every package raises subclasses of :class:`AskError` so applications can
catch one base type; hardware-model violations (register access, SRAM
budget) live in :mod:`repro.switch` but also derive from :class:`AskError`.
"""

from __future__ import annotations


class AskError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(AskError, ValueError):
    """An :class:`~repro.core.config.AskConfig` field is out of range or
    inconsistent with another field."""


class KeyTooLongError(AskError, ValueError):
    """A key exceeds the longest length the switch data plane can store.

    Long keys are not an error for the service as a whole — they bypass the
    switch (§3.2.3) — but feeding one to a switch-side structure is a bug.
    """


class TaskStateError(AskError, RuntimeError):
    """An aggregation task was driven through an invalid lifecycle
    transition (e.g. fetching results before all senders sent FIN)."""


class TaskFailedError(TaskStateError):
    """An aggregation task was failed loudly — e.g. a sender's give-up
    deadline expired while its peer stayed unreachable — instead of being
    left to retransmit forever (§3.3's liveness escape hatch)."""


class FabricTimeoutError(TaskStateError):
    """A real-time fabric run hit its wall-clock budget before the
    completion predicate held.

    ``pending`` maps node name → unacked sender-window entries, so a
    stalled UDP run says *where* it stalled at the raise site rather than
    at a downstream assertion.  (The fabric holds no frames of its own;
    datagrams waiting in a kernel socket buffer are not visible to it.)
    """

    def __init__(self, message: str, pending: "dict[str, int]"):
        super().__init__(message)
        self.pending = pending


class TopologyError(AskError, ValueError):
    """A topology operation referenced an unknown node or re-declared an
    existing one.  ``name`` carries the offending node/rack name so fabric
    callers can report *which* wiring declaration was wrong instead of
    surfacing a bare ``KeyError``."""

    def __init__(self, message: str, name: str):
        super().__init__(message)
        self.name = name


class ChaosScheduleError(AskError, ValueError):
    """A chaos schedule is ill-formed: overlapping fault windows on the
    same target, or a recovery without its fault.  ``target`` carries the
    node name whose windows collided so drill authors can see *which*
    schedule line to fix."""

    def __init__(self, message: str, target: str):
        super().__init__(message)
        self.target = target


class RegionExhaustedError(AskError, RuntimeError):
    """The switch controller has no free aggregator region for a new task."""


class ProtocolError(AskError, RuntimeError):
    """A malformed or impossible packet was observed (indicates a bug in the
    sender/switch logic, never expected under fault injection)."""
