"""Deterministic discrete-event simulator.

Time is an integer number of nanoseconds.  Events scheduled for the same
instant fire in scheduling order (a monotonically increasing tiebreaker keeps
the heap deterministic), so a simulation with a fixed seed is exactly
reproducible — a requirement for the property-based reliability tests, which
must be able to shrink failing schedules.

Per-event bookkeeping is O(1) (amortized O(log n) for the heap itself):

- heap entries are plain ``(time, order, event)`` tuples, so sift
  comparisons resolve on the integer fields in C instead of calling
  ``Event.__lt__`` (the single hottest call site of the seed event loop);
- cancellation is still lazy — the event stays in the heap and is skipped
  when popped — but the simulator keeps a live-event counter so ``pending``
  is O(1) instead of a full-heap sweep;
- when cancelled events outnumber live ones (retransmit timers cancel one
  event per ACK, so long lossy runs used to bloat the heap without bound),
  the heap is compacted in one O(n) pass, amortized against the cancels
  that triggered it;
- ``run`` and ``step`` dispatch through one place (``_run_entry``), so the
  ``max_events`` guard and the ``events_processed`` property can never
  disagree, and a heap holding only cancelled events drains instead of
  tripping the guard.

There is one scheduling path and one drain loop.  Every push takes its
order ticket from simulator state — a plain counter, a shard-composite
ticket once :meth:`Simulator.enable_shard_order` set a rank, plus a
:class:`ShardContextCall` wrap in canonical-serial mode — and every drive
mode (``run``, ``run(until=)``, ``run(max_events=)``, ``drain_until``,
``advance_to``) is the same loop.  Two fast paths sit on it:

- :meth:`Simulator.call_later` / :meth:`Simulator.call_at` push a bare
  ``(time, order, callback, args)`` 4-tuple — no :class:`Event` allocation,
  no cancellation bookkeeping — for the never-cancelled majority of events
  (link deliveries, rate-capped link launches, switch pipeline latency);
  anything that might be cancelled (retransmit timers) uses
  ``schedule``/``at``.  Orders
  are globally unique, so mixed 3- and 4-tuples never compare past the
  integer prefix in the heap.
- events landing at exactly the current instant (``delay 0``, ``at(now)``)
  go to a same-timestamp FIFO — a burst of same-instant work never
  re-heapifies.  Ordering stays exact: a heap entry at time ``T`` was
  necessarily pushed while ``now < T`` (an at-``now`` push is diverted to
  the FIFO), so every heap entry at ``T`` carries a smaller order than
  every FIFO entry, and the FIFO itself is order-sorted by construction.
  The drain therefore runs heap entries whose time equals ``now`` *before*
  the FIFO — they are the older schedules — and only then the FIFO, whose
  callbacks can never add heap entries at the current instant.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
from collections import deque
from typing import Any, Callable, Iterator, Optional

#: Compaction only kicks in above this many cancelled events, so small
#: simulations never pay for a heap rebuild.
_COMPACT_MIN_CANCELLED = 64

#: Shard-composite order tickets (see :meth:`Simulator.enable_shard_order`):
#: ``(push_time << 64) | (rank << 48) | seq``.  48 bits of per-shard
#: sequence outlast any realistic run (the plain counter they continue
#: from never exceeds event count), 16 bits of rank outlast any machine.
_SHARD_SEQ_BITS = 48
_SHARD_RANK_BITS = 16
_SHARD_TIME_SHIFT = _SHARD_SEQ_BITS + _SHARD_RANK_BITS


class SimulationError(RuntimeError):
    """Raised when the simulator is driven incorrectly (e.g. past-time event)."""


@contextlib.contextmanager
def paused_gc() -> Iterator[None]:
    """Suspend the cyclic garbage collector for the duration of a run.

    The event loop churns through hundreds of thousands of short-lived
    heap tuples, packets and events per scenario, every one reclaimed by
    reference counting; the cycle collector's generation scans in the
    middle of a run find nothing and cost ~35% of wall time on the 16-rack sharded benchmark.  Long-lived
    cycles (node graphs referencing the simulator and back) are live for
    the whole run anyway, so deferring collection changes nothing they
    would free.  The previous collector state is restored on exit — no
    explicit ``collect()``, the next threshold allocation triggers one
    naturally — and a disabled-on-entry collector stays disabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Event:
    """A cancellable scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and :meth:`Simulator.at`.
    Cancellation is lazy: the event stays in the heap but is skipped when
    popped.
    """

    __slots__ = ("time", "order", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: int, order: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.order = order
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        # _sim is dropped when the event leaves the heap, so a late cancel
        # (e.g. of a timer that already fired) cannot skew the live count.
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._on_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.order) < (other.time, other.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, {self.callback.__qualname__}, {state})"


class ShardContextCall:
    """Run ``callback`` with ``sim``'s shard context set to ``rank``.

    In canonical-serial mode (see
    :meth:`Simulator.enable_serial_shard_order`) every push wraps its
    callback in one of these so an executing event re-establishes its
    owning shard's context before running; the serial boundary shim wraps
    cross-shard deliveries a second time to re-home them to the
    destination shard.
    """

    __slots__ = ("_sim", "rank", "callback")

    def __init__(self, sim: "Simulator", rank: int, callback: Callable[..., Any]) -> None:
        self._sim = sim
        self.rank = rank
        self.callback = callback

    def __call__(self, *args: Any) -> None:
        self._sim._shard_rank = self.rank
        self.callback(*args)


class Simulator:
    """A minimal, deterministic event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10, fired.append, "a")
    >>> _ = sim.schedule(5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: min-heap of (time, order, Event) and (time, order, callback, args)
        #: entries; the int prefix keeps tuple comparison in C and the
        #: unique order means the payloads never compare.
        self._heap: list[tuple] = []
        #: same-instant FIFO: entries scheduled at exactly ``now``, drained
        #: before the heap (every heap entry at ``now`` predates them).
        self._now_queue: deque[tuple] = deque()
        self._order = 0
        #: order-ticket policy, read by every push: ``None`` issues the
        #: plain counter, a rank issues shard-composite tickets
        #: (enable_shard_order), and the canonical-serial flag additionally
        #: wraps each callback (enable_serial_shard_order).
        self._shard_rank: Optional[int] = None
        self._serial_order = False
        self._events_processed = 0
        self._live = 0  #: non-cancelled events currently queued
        self._cancelled_in_heap = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ns})")
        return self._push_event(self.now + int(delay_ns), callback, args)

    def at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before current time t={self.now}"
            )
        return self._push_event(time_ns, callback, args)

    def call_later(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable.

        The hot path for events that are never cancelled — link deliveries,
        NIC launch slots, switch pipeline latency.  Pushes a bare
        ``(time, order, callback, args)`` tuple instead of an
        :class:`Event`.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ns})")
        self._push_call(self.now + int(delay_ns), callback, args)

    def call_at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at`: no handle, not cancellable."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before current time t={self.now}"
            )
        self._push_call(time_ns, callback, args)

    # The four public methods share these two helpers rather than calling
    # each other: a tracer that wraps each public method at class level
    # must see every push exactly once.
    def _push_event(self, time_ns: int, callback: Callable[..., Any], args: tuple) -> Event:
        order = self._order
        self._order = order + 1
        rank = self._shard_rank
        if rank is not None:
            order |= (self.now << _SHARD_TIME_SHIFT) | (rank << _SHARD_SEQ_BITS)
            if self._serial_order:
                callback = ShardContextCall(self, rank, callback)
        event = Event(time_ns, order, callback, args)
        event._sim = self
        if time_ns == self.now:
            self._now_queue.append((time_ns, order, event))
        else:
            heapq.heappush(self._heap, (time_ns, order, event))
        self._live += 1
        return event

    def _push_call(self, time_ns: int, callback: Callable[..., Any], args: tuple) -> None:
        order = self._order
        self._order = order + 1
        rank = self._shard_rank
        if rank is not None:
            order |= (self.now << _SHARD_TIME_SHIFT) | (rank << _SHARD_SEQ_BITS)
            if self._serial_order:
                callback = ShardContextCall(self, rank, callback)
        if time_ns == self.now:
            self._now_queue.append((time_ns, order, callback, args))
        else:
            heapq.heappush(self._heap, (time_ns, order, callback, args))
        self._live += 1

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """A live queued event was just cancelled; compact if they dominate."""
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify — O(n), amortized O(1) per
        cancel since at least half the heap is discarded each time.

        Mutates the heap list in place: ``run`` holds a local reference to
        it while a callback may trigger this compaction.
        """
        before = len(self._heap)
        self._heap[:] = [
            entry for entry in self._heap if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        # Cancelled events on the now-queue stay queued (and counted) until
        # the drain pops them, so subtract only what this pass removed.
        self._cancelled_in_heap -= before - len(self._heap)
        self.compactions += 1

    def _run_entry(self, entry: tuple) -> bool:
        """Execute one queue/heap entry; False if it was a cancelled event."""
        if len(entry) == 4:
            self._live -= 1
            self._events_processed += 1
            entry[2](*entry[3])
            return True
        event = entry[2]
        if event.cancelled:
            self._cancelled_in_heap -= 1
            return False
        self._live -= 1
        event._sim = None
        self._events_processed += 1
        event.callback(*event.args)
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when nothing is queued."""
        heap = self._heap
        # Heap entries at or before the current instant predate every FIFO
        # entry (smaller order tickets), so they run first.
        while heap and heap[0][0] <= self.now:
            if self._run_entry(heapq.heappop(heap)):
                return True
        queue = self._now_queue
        while queue:
            if self._run_entry(queue.popleft()):
                return True
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) == 4 or not entry[2].cancelled:
                self.now = entry[0]  # the clock never moves onto a cancelled event
            if self._run_entry(entry):
                return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queues drain, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` is an absolute time; events scheduled at exactly ``until``
        still run.  ``max_events`` guards against accidental livelock in
        tests; it counts events processed *by this call* (cancelled events
        that are merely discarded do not count, and queues holding only
        cancelled events drain normally).
        """
        heap = self._heap
        queue = self._now_queue
        heappop = heapq.heappop
        budget = None if max_events is None else self._events_processed + max_events
        while True:
            # Peek the next entry in (time, order).  Heap entries at (or,
            # late, before) the current instant predate every FIFO entry
            # (they were pushed while ``now`` was still behind them), so
            # they run first; the FIFO then drains every same-instant
            # burst without re-heapifying (its callbacks can only append
            # to the FIFO, never to the heap at ``now``).  Only a future
            # heap entry moves the clock, so ``now`` never runs back.
            now = self.now
            if heap and heap[0][0] <= now:
                entry, from_heap = heap[0], True
            elif queue:
                entry, from_heap = queue[0], False
            elif heap:
                entry, from_heap = heap[0], True
                now = entry[0]
            else:
                break
            if len(entry) == 4 or not entry[2].cancelled:
                # Only a live entry can stop the run; cancelled ones are
                # discarded by _run_entry whatever the bounds say.
                if until is not None and entry[0] > until:
                    break
                if budget is not None and self._events_processed >= budget:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events} at t={self.now}"
                    )
                self.now = now
            if from_heap:
                heappop(heap)
            else:
                queue.popleft()
            self._run_entry(entry)
        if until is not None and self.now < until:
            self.now = until

    def advance_to(self, time_ns: int) -> None:
        """Move ``now`` forward to ``time_ns`` and run every entry due by it.

        The UDP backend's step: each loop round advances its clock to the
        wall time ``select`` returned at.  Late heap entries run at the
        current instant in (time, order) order, then the same-instant FIFO
        (which holds what they pushed, and any delay-0 push made while a
        socket drain moved ``now`` on).  ``now`` never moves back: with
        ``time_ns <= now`` only the entries due by ``time_ns`` run.
        """
        time_ns = int(time_ns)
        if time_ns > self.now:
            self.now = time_ns
        self.run(until=time_ns)

    # ------------------------------------------------------------------
    # Sharded execution hooks (conservative PDES — see repro.net.sharded)
    # ------------------------------------------------------------------
    def enable_shard_order(self, rank: int) -> None:
        """Issue shard-composite order tickets from now on.

        A rack-sharded run executes one full-topology replica of the
        deployment per shard and merges cross-shard deliveries straight
        into each other's heaps (:meth:`inject`).  Plain per-simulator
        counters cannot order such merged entries, so every ticket becomes
        ``(push_time << 64) | (rank << 48) | seq``:

        * within one shard, ``(push_time, seq)`` is monotone in execution
          order — exactly the relative order the serial run's plain
          counter produces;
        * across shards, entries scheduled at the *same* event time sort
          by push time first, which is the serial tiebreak whenever the
          colliding schedules were pushed at different instants;
        * the residual case — equal event time *and* equal push time from
          different shards — falls back to ``(rank, seq)``.  No oblivious
          serial schedule reproduces that tiebreak (plain counters follow
          each packet's causal path through transit switches, which the
          shards cannot see), so the serial oracle runs the *canonical*
          schedule instead: :meth:`enable_serial_shard_order` claims these
          same composite tickets with the rank of each event's owning
          shard, making the ``(time, rank, seq)`` ticket the definition
          of same-instant order on both sides of the comparison.

        ``seq`` continues the plain counter, so tickets issued before this
        call stay smaller than every same-or-later composite and mixed
        heaps keep exact FIFO semantics.  Same-instant pushes still land
        on the now-queue: a composite at the current instant carries
        ``push_time == now``, while every heap entry at ``now`` was pushed
        earlier and therefore compares below it.
        """
        self.set_shard_context(rank)

    def claim_shard_ticket(self) -> int:
        """Issue the next shard-composite ticket without pushing anything.

        The boundary-link shim's entry point: a cross-shard delivery
        consumes one ticket on the sending side (just as the serial run's
        ``call_at`` would) and carries it to the destination shard's
        :meth:`inject`.
        """
        rank = self._shard_rank
        if rank is None:
            raise SimulationError("shard order is not enabled on this simulator")
        seq = self._order
        self._order = seq + 1
        return (self.now << _SHARD_TIME_SHIFT) | (rank << _SHARD_SEQ_BITS) | seq

    def enable_serial_shard_order(self) -> None:
        """Canonical-serial counterpart of :meth:`enable_shard_order`.

        The serial oracle for a sharded run claims the *same* composite
        tickets the shard replicas claim, with the rank taken from a
        mutable *shard context* instead of a fixed per-replica rank.  The
        context follows event ownership: every scheduled callback is
        wrapped in a :class:`ShardContextCall` so that, when it runs, the
        context snaps back to the rank it was pushed under — the shard
        whose replica executes that event in the sharded run — and every
        push the callback makes stamps that rank onto its ticket.
        Boundary-link deliveries are re-homed to the destination shard's
        rank by the serial boundary shim (``repro.net.sharded``), exactly
        where the sharded run hands a message across the cut.

        Pushes made outside any event (chaos scheduling, task
        submission) use the rank installed via :meth:`set_shard_context`.
        """
        self._shard_rank = 0
        self._serial_order = True

    def set_shard_context(self, rank: int) -> None:
        """Set the rank stamped onto every ticket from now on — in
        canonical-serial mode, the shard context for pushes made outside
        any event."""
        if not 0 <= rank < (1 << _SHARD_RANK_BITS):
            raise SimulationError(
                f"shard rank {rank} does not fit {_SHARD_RANK_BITS} bits"
            )
        self._shard_rank = rank

    def next_event_time(self) -> Optional[int]:
        """Earliest pending event time, or ``None`` when fully drained.

        Skims cancelled heads off the heap as a side effect (they would be
        discarded by the next ``run`` anyway), so the reported time is a
        live lower bound — the safe-horizon math of a sharded run must not
        stretch a window to a timer that will never fire.
        """
        if self._now_queue:
            return self.now
        heap = self._heap
        while heap:
            head = heap[0]
            if len(head) == 3 and head[2].cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            return head[0]
        return None

    def inject(self, time_ns: int, order: int, callback: Callable[..., Any], *args: Any) -> None:
        """Merge an externally-ordered event straight into the heap.

        The cross-shard delivery path: the sending shard claimed ``order``
        (:meth:`claim_shard_ticket`) when its boundary link computed the
        arrival, so the entry lands exactly where the serial run's heap
        push would have put it.  Conservative windows guarantee arrivals
        lie strictly beyond the drained horizon, hence past ``now``.
        """
        time_ns = int(time_ns)
        if time_ns <= self.now:
            raise SimulationError(
                f"cannot inject at t={time_ns}: shard already drained to t={self.now}"
            )
        heapq.heappush(self._heap, (time_ns, order, callback, args))
        self._live += 1

    def drain_until(self, horizon_ns: int, max_events: Optional[int] = None) -> None:
        """Run every event strictly below ``horizon_ns`` (exclusive bound).

        The conservative window step: with lookahead ``L`` (the minimum
        cross-shard link latency) and global minimum next-event time
        ``m``, every message a shard can emit this window arrives at
        ``>= m + L``, so events below ``horizon = m + L`` are safe to run
        without further synchronization.  ``run(until=...)`` is inclusive,
        so the exclusive bound maps to ``until = horizon_ns - 1`` — after
        the call ``now == horizon_ns - 1 < horizon_ns <=`` every injected
        arrival, keeping :meth:`inject` legal at the next barrier.
        """
        horizon_ns = int(horizon_ns)
        if horizon_ns <= self.now:
            raise SimulationError(
                f"horizon t={horizon_ns} is not ahead of current time t={self.now}"
            )
        self.run(until=horizon_ns - 1, max_events=max_events)

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending})"


# ---------------------------------------------------------------------------
# Time unit helpers.  The simulator itself is unit-agnostic; all repro code
# uses nanoseconds, and these helpers keep call sites readable.
# ---------------------------------------------------------------------------

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def microseconds(us: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(round(us * NS_PER_US))


def milliseconds(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(round(ms * NS_PER_MS))


def seconds(s: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(round(s * NS_PER_S))


def to_seconds(ns: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return ns / NS_PER_S
