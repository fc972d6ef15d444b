"""Seed-deterministic fault schedules and the one kind table.

A schedule is a flat, time-sorted tuple of :class:`ChaosEvent`s plus the
window parameters its faults run with (corruption rate, slowdown,
straggle delay, flap period).  Every injected fault comes with its
recovery event (crash→restore, partition→heal) inside the horizon, so a
generated schedule never leaves a node permanently dark — permanent
outages are tested explicitly (the give-up drill), not sampled.

:data:`KINDS` is the one place a fault kind is described: its recovery,
what it acts on, and whether it is gray, fail-stop, or replayable on
every shard replica of a sharded run.  :data:`RECOVERY_OF`,
:data:`GRAY_KINDS` and :data:`FAIL_STOP_KINDS` are views of it; the
orchestrator applies an event by looking its kind up here.

``at_ns`` is an offset from the moment the orchestrator arms the
schedule, which makes the same schedule meaningful on the simulated
clock and on the UDP backend's wall clock alike.

Fault windows on the same target never overlap: ``generate``
deterministically coalesces colliding draws (same-kind windows merge,
different-kind windows queue after the earlier recovery) and
:meth:`ChaosSchedule.check_windows` rejects hand-built schedules whose
windows interleave, with a tagged :class:`ChaosScheduleError` naming the
target.  An overlapping pair is never what a drill means: the earlier
window's recovery would fire *inside* the later window, silently undoing
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.errors import ChaosScheduleError


@dataclass(frozen=True)
class Kind:
    """One fault kind and how the orchestrator applies it.

    ``acts_on`` names what both the fault and its recovery call, by
    event kind: ``"node"`` (the host daemon or switch's
    ``crash()``/``restore()``), ``"fabric"`` (``fabric.<kind>(target)``),
    ``"daemon"`` (the host daemon's ``straggle``/``unstraggle``),
    ``"hook"`` (the drill's ``on_<kind>(target)``) or ``"flap"`` (the
    orchestrator's own partition/heal duty cycle).  ``gray`` faults
    leave the target degraded but alive — the class heartbeat leases
    cannot see; ``fail_stop`` faults silence it.  ``replayable`` kinds
    may run on every shard replica of a sharded run: a fabric flag or a
    daemon delay is inert on replicas whose packets never touch the
    target, while a crashed node, a drill hook or a flap cycle is not.
    """

    fault: str
    recovery: str
    acts_on: str
    gray: bool = False
    fail_stop: bool = False
    replayable: bool = False


#: The kind table.  "corrupt" opens a corruption window on the target
#: (frames it sends/receives are delivered with flipped bits).
#: "overload" opens an overload window: an abusive tenant floods tasks
#: from the target host while hoarding switch memory, as the drill's
#: ``on_overload`` hook defines, and "relent" releases the hoard so
#: reclaim wakes the admission queue.  "slow" multiplies the latency of
#: every link touching the target; "straggle" delays the target daemon's
#: ingress service (straggler sender / slow receiver); "flap"
#: duty-cycles the target dark and back until "steady".
KINDS: Dict[str, Kind] = {
    kind.fault: kind
    for kind in (
        Kind("crash", "restore", "node", fail_stop=True),
        Kind("partition", "heal", "fabric", fail_stop=True, replayable=True),
        Kind("corrupt", "cleanse", "fabric", replayable=True),
        Kind("overload", "relent", "hook"),
        Kind("slow", "revive", "fabric", gray=True, replayable=True),
        Kind("straggle", "unstraggle", "daemon", gray=True, replayable=True),
        Kind("flap", "steady", "flap", gray=True),
    )
}

#: Every event kind, fault or recovery -> its row of :data:`KINDS`.
KIND_OF: Dict[str, Kind] = {
    name: kind for kind in KINDS.values() for name in (kind.fault, kind.recovery)
}

#: Fault kind -> the event kind that undoes it.
RECOVERY_OF = {kind.fault: kind.recovery for kind in KINDS.values()}

#: Gray (degraded-but-alive) fault kinds.
GRAY_KINDS = tuple(kind.fault for kind in KINDS.values() if kind.gray)

#: Fail-stop fault kinds: the target goes silent.
FAIL_STOP_KINDS = tuple(kind.fault for kind in KINDS.values() if kind.fail_stop)


@dataclass(frozen=True)
class ChaosEvent:
    """One injection: at ``at_ns`` (offset from arm), do ``kind`` to
    ``target`` (a host daemon or switch name)."""

    at_ns: int
    kind: str  #: a fault or recovery kind of :data:`KINDS`
    target: str

    def __post_init__(self) -> None:
        if self.kind not in KIND_OF:
            raise ValueError(f"unknown chaos event kind {self.kind!r}")
        if self.at_ns < 0:
            raise ValueError("chaos events cannot be scheduled in the past")


def _coalesce(
    windows: List[Tuple[int, int, str, str]],
    start: int,
    end: int,
    kind: str,
    target: str,
    horizon_ns: int,
) -> None:
    """Fold one drawn fault window into ``windows`` (same target).

    Deterministic rules, applied in draw order so a seed still fully
    determines the schedule:

    * no collision → keep the window as drawn;
    * overlaps only windows of the *same* kind → merge into one window
      spanning min(start)..max(end) (one fault, one recovery);
    * overlaps a window of a *different* kind → queue the new window
      right after the latest colliding recovery, preserving its
      duration, clamped to the horizon — or drop it entirely if no room
      remains (deterministically: both its events vanish, pairing holds).
    """
    duration = end - start
    # Touching counts as colliding (<=/>=): a fault must never share an
    # instant with the same target's earlier recovery, because event order
    # within one instant is sort order, not causality.
    colliding = [w for w in windows if w[3] == target and start <= w[1] and end >= w[0]]
    while colliding:
        if all(w[2] == kind for w in colliding):
            for w in colliding:
                windows.remove(w)
            start = min([start] + [w[0] for w in colliding])
            end = max([end] + [w[1] for w in colliding])
        else:
            # +1 so the queued fault never shares an instant with the
            # earlier recovery (event order at one instant is sort order).
            start = max(w[1] for w in colliding) + 1
            end = min(start + duration, horizon_ns)
            if start >= horizon_ns or end <= start:
                return  # no room left inside the horizon: drop the fault
        colliding = [
            w for w in windows if w[3] == target and start <= w[1] and end >= w[0]
        ]
    windows.append((start, end, kind, target))


@dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic, time-sorted fault schedule.

    The window fields say how strong each fault is while its window is
    open; the orchestrator pushes the fabric's share of them (corruption
    rate, slowdown multiplier and jitter) when it arms the schedule.
    ``slow_multiplier`` scales a simulated link's latency; a UDP link,
    with no fixed latency to scale, holds a slowed datagram a fixed
    ``SLOW_HOLD_NS`` instead.  Jitter applies on both.
    """

    seed: int
    horizon_ns: int
    events: tuple[ChaosEvent, ...]
    #: Per-frame corruption probability inside a ``corrupt`` window.
    corruption_rate: float = 0.5
    #: Link latency multiplier and per-packet uniform jitter (ns) inside
    #: a ``slow`` window.
    slow_multiplier: float = 4.0
    slow_jitter_ns: int = 0
    #: Ingress service delay and its uniform jitter (ns) of a straggling
    #: daemon.
    straggle_delay_ns: int = 50_000
    straggle_jitter_ns: int = 0
    #: Duty-cycle period (ns) of a ``flap`` window's dark/lit toggles.
    flap_period_ns: int = 20_000

    @classmethod
    def generate(
        cls,
        seed: int,
        hosts: Sequence[str],
        switches: Sequence[str],
        horizon_ns: int = 2_000_000,
        max_faults: int = 3,
        min_down_ns: int = 50_000,
        max_down_ns: int = 500_000,
        kinds: Iterable[str] = ("crash", "partition"),
    ) -> "ChaosSchedule":
        """Sample ``1..max_faults`` faults with paired recoveries.

        The draw sequence is fixed — (target, kind, start, duration) per
        fault from ``random.Random(seed)`` — so a seed fully determines
        the schedule for a given topology.  The default ``kinds`` stays
        ``("crash", "partition")`` so existing seeds keep their exact
        schedules; corruption runs opt in with
        ``kinds=("crash", "partition", "corrupt")`` and gray drills with
        ``kinds=("slow", "straggle", "flap")``.  Colliding windows on the
        same target are coalesced deterministically (see
        :func:`_coalesce`); ``straggle`` drawn for a switch becomes
        ``slow`` (switches have no daemon service loop; their gray
        failure is their links), keeping the draw sequence unchanged.
        """
        targets = list(hosts) + list(switches)
        if not targets:
            raise ValueError("chaos needs at least one host or switch")
        host_set = set(hosts)
        kind_choices = list(kinds)
        rng = random.Random(seed)
        windows: List[Tuple[int, int, str, str]] = []
        latest_start = max(1, horizon_ns - max_down_ns)
        for _ in range(rng.randint(1, max_faults)):
            target = rng.choice(targets)
            kind = rng.choice(kind_choices)
            start = rng.randrange(0, latest_start)
            duration = rng.randrange(min_down_ns, max_down_ns)
            if kind == "straggle" and target not in host_set:
                kind = "slow"
            _coalesce(windows, start, start + duration, kind, target, horizon_ns)
        events: list[ChaosEvent] = []
        for start, end, kind, target in windows:
            events.append(ChaosEvent(start, kind, target))
            events.append(ChaosEvent(end, RECOVERY_OF[kind], target))
        events.sort(key=lambda e: (e.at_ns, e.target, e.kind))
        schedule = cls(seed=seed, horizon_ns=horizon_ns, events=tuple(events))
        schedule.check_windows()
        return schedule

    def check_windows(self) -> "ChaosSchedule":
        """Validate window well-formedness; returns self for chaining.

        Raises a tagged :class:`ChaosScheduleError` if any target's fault
        windows interleave (a fault fires while the same target's earlier
        window of any kind is still open) or a recovery arrives without
        its fault.  ``generate`` output always passes; hand-built drill
        schedules should call this before arming.
        """
        open_kind: dict[str, str] = {}
        for event in self.events:
            if event.kind in KINDS:
                previous = open_kind.get(event.target)
                if previous is not None:
                    raise ChaosScheduleError(
                        f"chaos window overlap on {event.target!r}: "
                        f"{event.kind!r} at {event.at_ns} fires inside an "
                        f"open {previous!r} window",
                        event.target,
                    )
                open_kind[event.target] = event.kind
            else:
                expected = KIND_OF[event.kind].fault
                if open_kind.get(event.target) != expected:
                    raise ChaosScheduleError(
                        f"chaos recovery {event.kind!r} at {event.at_ns} on "
                        f"{event.target!r} has no open {expected!r} window",
                        event.target,
                    )
                del open_kind[event.target]
        if open_kind:
            target, kind = next(iter(open_kind.items()))
            raise ChaosScheduleError(
                f"chaos {kind!r} window on {target!r} never recovers "
                f"(no {RECOVERY_OF[kind]!r} event)",
                target,
            )
        return self

    @property
    def fault_count(self) -> int:
        return sum(1 for e in self.events if e.kind in KINDS)

    @property
    def gray_fault_count(self) -> int:
        """How many of the schedule's faults are gray (degraded-but-alive)."""
        return sum(1 for e in self.events if e.kind in GRAY_KINDS)

    def targets(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(event.target for event in self.events))
