"""Retransmission timers and the host receive window (§3.3).

ASK deliberately does **not** use out-of-order ACKs as a loss signal —
both the switch and the host receiver reply ACKs, so reordering is normal —
and relies on a fine-grained timeout instead (100 us vs the Linux default
200 ms).  :class:`RetransmitTimers` implements that policy on top of any
:class:`~repro.runtime.interfaces.Clock` (on both backends a
:class:`~repro.net.simulator.Simulator`, on simulated or wall-clock time);
re-arming cancels the previous timer lazily, and the simulator compacts
its heap when cancelled timers pile up in long lossy runs, so per-packet
timer churn stays O(log n) with a bounded heap.

:class:`ReceiveWindow` is the host receiver's dedup record: first
appearances within the current window are processed, duplicates are dropped
(but still acknowledged), and packets older than ``max_seq - W`` are treated
as duplicates of something long since handled.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.interfaces import Clock
from repro.transport.window import SlidingWindow, WindowEntry

#: Exponent clamp for the estimator's backoff; 2**16 × RTO is far beyond
#: any sane cap, so growing the exponent further would only risk overflow.
_MAX_BACKOFF_EXP = 16


class AdaptiveRto:
    """Jacobson/Karels RTT estimator (the RFC 6298 shape) for one channel.

    A gray link does not drop packets — it stretches them.  A fixed 100 us
    timeout under 4x latency inflation fires on packets that are still in
    flight, and every spurious retransmit is read by AIMD as loss.  The
    estimator tracks ``srtt``/``rttvar`` with the classic EWMA gains
    (α=1/8, β=1/4) and arms ``srtt + 4·rttvar`` clamped to
    ``[min_ns, max_ns]``, so the timeout follows the path's actual latency
    up *and* back down.

    Karn's rule is enforced by the caller: only entries ACKed on their
    first transmission are fed to :meth:`observe` (a retransmitted entry's
    ACK is ambiguous).  The estimator owns the exponential backoff — each
    timeout doubles the armed value (still capped), and the next clean
    sample resets it.
    """

    __slots__ = ("min_ns", "max_ns", "srtt_ns", "rttvar_ns", "samples",
                 "_backoff_exp")

    def __init__(self, initial_rto_ns: int, min_ns: int, max_ns: int) -> None:
        if min_ns <= 0 or max_ns < min_ns:
            raise ValueError(
                f"need 0 < min_ns <= max_ns, got [{min_ns}, {max_ns}]"
            )
        self.min_ns = min_ns
        self.max_ns = max_ns
        #: Until the first sample the channel runs on the configured fixed
        #: timeout (clamped), exactly like the non-adaptive policy.
        self.srtt_ns = float(min(max(initial_rto_ns, min_ns), max_ns))
        self.rttvar_ns = 0.0
        self.samples = 0
        self._backoff_exp = 0

    def observe(self, sample_ns: int) -> None:
        """Fold in one clean (first-transmission) RTT sample."""
        if self.samples == 0:
            self.srtt_ns = float(sample_ns)
            self.rttvar_ns = sample_ns / 2.0
        else:
            err = abs(self.srtt_ns - sample_ns)
            self.rttvar_ns += (err - self.rttvar_ns) / 4.0
            self.srtt_ns += (sample_ns - self.srtt_ns) / 8.0
        self.samples += 1
        self._backoff_exp = 0

    def on_timeout(self) -> None:
        """A retransmit timer fired: back off until the next clean sample."""
        self._backoff_exp = min(self._backoff_exp + 1, _MAX_BACKOFF_EXP)

    def rto_ns(self) -> int:
        """Current timeout: ``(srtt + 4·rttvar) · 2**backoff``, clamped."""
        base = self.srtt_ns + 4.0 * self.rttvar_ns
        backed = base * (1 << self._backoff_exp)
        return int(min(max(backed, self.min_ns), self.max_ns))


class RetransmitTimers:
    """Per-packet timeout management for one data channel.

    Every retransmission waits the fixed §3.3 ``timeout_ns``, or the
    attached :class:`AdaptiveRto` estimator's current value (which carries
    its own backoff).  A ``give_up_ns`` deadline measured from the entry's
    first transmission invokes ``on_give_up`` instead of retransmitting
    forever — the caller fails the task loudly.
    """

    def __init__(
        self,
        clock: Clock,
        window: SlidingWindow,
        timeout_ns: int,
        resend: Callable[[WindowEntry], None],
        give_up_ns: Optional[int] = None,
        on_give_up: Optional[Callable[[WindowEntry], None]] = None,
        estimator: Optional[AdaptiveRto] = None,
    ) -> None:
        self.clock = clock
        self.window = window
        self.timeout_ns = timeout_ns
        self._resend = resend
        self.give_up_ns = give_up_ns
        self.on_give_up = on_give_up
        self.estimator = estimator
        self.retransmissions = 0
        self.timeouts = 0
        self.give_ups = 0
        #: Smallest RTT ever observed on a first transmission; an ACK that
        #: lands on a retransmitted entry faster than this after its last
        #: send must belong to an earlier copy — the retransmit was
        #: spurious.  Pure arithmetic on existing timestamps (no RNG, no
        #: scheduling), so tracking it is always on and schedule-identical.
        self.min_rtt_ns: Optional[int] = None
        self.spurious_retransmissions = 0

    def arm(self, entry: WindowEntry) -> None:
        """(Re)arm the timeout for an entry that was just transmitted."""
        if entry.timer is not None:
            entry.timer.cancel()
        estimator = self.estimator
        delay = self.timeout_ns if estimator is None else estimator.rto_ns()
        if self.give_up_ns is not None and self.on_give_up is not None:
            # A (possibly backed-off) delay must not slide the next firing
            # past the give-up deadline: clamp so the timer lands exactly on
            # it and _fire's deadline check converts the firing into give-up.
            remaining = entry.first_sent_ns + self.give_up_ns - self.clock.now
            if delay > remaining:
                delay = max(remaining, 0)
        entry.timer = self.clock.schedule(delay, self._fire, entry)

    def note_ack(self, entry: WindowEntry) -> None:
        """Feed an ACKed entry's timing back (call on first ACK only).

        First-transmission ACKs yield clean RTT samples (Karn's rule) for
        the floor tracker and the estimator, when one is attached.
        Retransmitted entries are checked against the floor for
        spuriousness instead: all copies beyond the one the ACK plausibly
        answers were wasted wire."""
        rtt = self.clock.now - entry.last_sent_ns
        if entry.transmissions <= 1:
            if self.min_rtt_ns is None or rtt < self.min_rtt_ns:
                self.min_rtt_ns = rtt
            if self.estimator is not None:
                self.estimator.observe(rtt)
        elif self.min_rtt_ns is not None and rtt < self.min_rtt_ns:
            self.spurious_retransmissions += entry.transmissions - 1

    def cancel(self, entry: WindowEntry) -> None:
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None

    def _fire(self, entry: WindowEntry) -> None:
        # The entry may have been ACKed between scheduling and firing; the
        # ACK path cancels the timer, but a cancelled event that already
        # popped is also possible, so re-check.
        if entry.acked or self.window.get(entry.seq) is not entry:
            return
        if (
            self.give_up_ns is not None
            and self.on_give_up is not None
            and self.clock.now - entry.first_sent_ns >= self.give_up_ns
        ):
            self.give_ups += 1
            self.on_give_up(entry)
            return
        self.timeouts += 1
        if self.estimator is not None:
            self.estimator.on_timeout()
        self.retransmissions += 1
        self._resend(entry)
        self.arm(entry)


class ReceiveWindow:
    """Host-receiver dedup for one incoming data channel.

    Behaviourally equivalent to the switch's compact ``seen``: the live
    sequence range is ``(max_seq - W, max_seq]`` — exactly W values, one per
    residue mod W — so a W-slot ring indexed by ``seq % W`` records first
    appearances in O(1) with no pruning pass at all.  A ring slot holding a
    different sequence than the arrival is always safe to overwrite: two
    sequences sharing a residue differ by at least W, and accepting the
    larger one moved ``max_seq`` far enough that the smaller is caught by
    the stale guard before the ring is ever consulted.

    That stale guard (``seq <= max_seq - W`` ⇒ duplicate) is the single
    source of truth for the window floor: a sequence at exactly the floor is
    stale *and* evicted, so the guard and the ring can never disagree about
    it.  (The seed implementation pruned its ``_seen`` set only when
    ``floor > 0``, leaving seq 0 resident forever; see
    ``ReferenceReceiveWindow`` in ``tests/oracles/windows.py``.)
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.max_seq = -1
        self._ring: list[int] = [-1] * window
        self.duplicates = 0
        self.accepted = 0

    @property
    def _seen(self) -> set[int]:
        """Live seen sequences (introspection; the hot path never builds it)."""
        floor = self.max_seq - self.window
        return {s for s in self._ring if s >= 0 and s > floor}

    def is_new(self, seq: int) -> bool:
        """Record ``seq``; True exactly on its first in-window appearance."""
        if seq <= self.max_seq - self.window:
            self.duplicates += 1
            return False
        slot = seq % self.window
        ring = self._ring
        if ring[slot] == seq:
            self.duplicates += 1
            return False
        ring[slot] = seq
        if seq > self.max_seq:
            self.max_seq = seq
        self.accepted += 1
        return True
