"""The seed event loop, frozen as the oracle of :class:`repro.net.simulator.Simulator`.

The product simulator keeps a live-event count, compacts its heap, runs
same-instant events through a FIFO and drains PDES windows; the seed did
none of that.  ``tests/transport/test_hotpath_equivalence.py`` requires
random schedule/cancel programs to fire identically through both, in every
drive mode.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.net.simulator import SimulationError


class ReferenceEvent:
    """Seed event: lazy cancellation with no live-count bookkeeping."""

    __slots__ = ("time", "order", "callback", "args", "cancelled")

    def __init__(self, time: int, order: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.order = order
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "ReferenceEvent") -> bool:
        return (self.time, self.order) < (other.time, other.order)


class ReferenceSimulator:
    """Seed event loop: O(n) ``pending``, no heap compaction, and the
    ``run``-local ``processed`` counter that could trip ``max_events`` on a
    heap holding only cancelled events."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[ReferenceEvent] = []
        self._order = 0
        self._events_processed = 0

    def schedule(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> ReferenceEvent:
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ns})")
        return self.at(self.now + int(delay_ns), callback, *args)

    def at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> ReferenceEvent:
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before current time t={self.now}"
            )
        event = ReferenceEvent(int(time_ns), self._order, callback, args)
        self._order += 1
        heapq.heappush(self._heap, event)
        return event

    # The optimized simulator grew fire-and-forget variants; the seed shape
    # routes them through the Event-allocating paths.
    def call_later(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        self.schedule(delay_ns, callback, *args)

    def call_at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        self.at(time_ns, callback, *args)

    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"simulation exceeded max_events={max_events} at t={self.now}"
                )
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and head.time > until:
                self.now = until
                return
            if not self.step():
                break
            processed += 1
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed
