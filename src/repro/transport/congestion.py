"""ECN-based congestion control (§7 "Congestion Control").

ASK is compatible with ECN-based INA congestion control à la ATP/PANAMA:
switch/link queues mark packets when their backlog exceeds a threshold,
receivers (and the switch's own ACKs) echo the mark, and the sender runs
AIMD on a congestion window.  The one ASK-specific rule, stated by the
paper, is a hard cap:

    "the congestion window should not exceed the maximum window defined in
    the reliability mechanism, protecting the switch receive window from
    malfunctioning."
"""

from __future__ import annotations

from repro.runtime.interfaces import Clock


class CongestionWindow:
    """AIMD congestion window for one data channel.

    Additive increase: +1/cwnd per non-marked ACK (one packet per RTT).
    Multiplicative decrease: halve on an ECN echo, at most once per
    ``freeze_ns`` (one congestion event per window of data, as in DCTCP's
    ancestor New Reno).
    """

    def __init__(
        self,
        clock: Clock,
        max_window: int,
        initial: float = 4.0,
        minimum: float = 1.0,
        freeze_ns: int = 100_000,
    ) -> None:
        if not 1 <= minimum <= initial <= max_window:
            raise ValueError(
                f"need 1 <= minimum ({minimum}) <= initial ({initial}) "
                f"<= max_window ({max_window})"
            )
        self.clock = clock
        self.max_window = max_window  # the reliability window W — hard cap
        self.minimum = minimum
        self._cwnd = float(initial)
        self._cwnd_int = int(self._cwnd)
        self.freeze_ns = freeze_ns
        self._frozen_until = -1
        self.decreases = 0
        self.increases = 0

    # ``allows`` runs on every admission attempt of every packet, so the
    # integer window is cached and refreshed only when cwnd changes.
    @property
    def cwnd(self) -> float:
        return self._cwnd

    @cwnd.setter
    def cwnd(self, value: float) -> None:
        self._cwnd = value
        self._cwnd_int = int(value)

    # ------------------------------------------------------------------
    def allows(self, in_flight: int) -> bool:
        """May another packet enter the network?"""
        return in_flight < self._cwnd_int

    def on_ack(self, ecn_echo: bool) -> None:
        """Update the window from one ACK."""
        if ecn_echo:
            if self.clock.now >= self._frozen_until:
                self.cwnd = max(self.minimum, self._cwnd / 2)
                self._frozen_until = self.clock.now + self.freeze_ns
                self.decreases += 1
            return
        self.cwnd = min(float(self.max_window), self._cwnd + 1.0 / max(self._cwnd, 1.0))
        self.increases += 1

    def on_timeout(self) -> None:
        """A retransmission timeout is the strongest congestion signal."""
        if self.clock.now >= self._frozen_until:
            self.cwnd = self.minimum
            self._frozen_until = self.clock.now + self.freeze_ns
            self.decreases += 1

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CongestionWindow(cwnd={self.cwnd:.2f}, cap={self.max_window})"
