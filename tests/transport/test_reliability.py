"""Tests for host-side retransmit timers and the receive window."""

import pytest

from repro.net.simulator import Simulator
from repro.transport.reliability import (
    AdaptiveRto,
    ReceiveWindow,
    RetransmitTimers,
)
from repro.transport.window import SlidingWindow


# ---------------------------------------------------------------------------
# ReceiveWindow
# ---------------------------------------------------------------------------
def test_first_arrival_is_new():
    window = ReceiveWindow(8)
    assert window.is_new(0)
    assert window.accepted == 1


def test_repeat_arrival_is_duplicate():
    window = ReceiveWindow(8)
    window.is_new(3)
    assert not window.is_new(3)
    assert window.duplicates == 1


def test_out_of_order_first_arrivals_are_new():
    window = ReceiveWindow(8)
    assert window.is_new(5)
    assert window.is_new(2)
    assert window.is_new(7)


def test_stale_arrival_treated_as_duplicate():
    window = ReceiveWindow(4)
    window.is_new(10)
    assert not window.is_new(6)  # 6 <= 10 - 4


def test_pruning_keeps_memory_bounded():
    window = ReceiveWindow(4)
    for seq in range(1000):
        window.is_new(seq)
    assert len(window._seen) <= 4


def test_seq_zero_pruned_at_floor():
    # Seed regression: the prune ran only when ``floor > 0``, so seq 0
    # stayed resident forever once the window moved past it.
    window = ReceiveWindow(4)
    window.is_new(0)
    window.is_new(4)  # floor is now exactly 0: seq 0 is stale
    assert 0 not in window._seen
    assert window._seen == {4}


def test_window_floor_sequence_is_stale_and_evicted():
    window = ReceiveWindow(4)
    for seq in (0, 1, 2, 3, 4):
        window.is_new(seq)
    # 0 is at the floor (max_seq - window): stale by the guard, gone from
    # the live set; 1..4 are the W live residues.
    assert not window.is_new(0)
    assert window._seen == {1, 2, 3, 4}


def test_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        ReceiveWindow(0)


def test_gap_sequences_never_marked_seen():
    window = ReceiveWindow(8)
    window.is_new(0)
    window.is_new(4)
    assert window.is_new(2)  # the gap arrives late but in-window


# ---------------------------------------------------------------------------
# RetransmitTimers
# ---------------------------------------------------------------------------
def _timer_harness(timeout_ns=1000):
    sim = Simulator()
    window = SlidingWindow(size=4)
    resent = []
    timers = RetransmitTimers(sim, window, timeout_ns, resent.append)
    return sim, window, timers, resent


def test_timer_fires_after_timeout_and_rearms():
    sim, window, timers, resent = _timer_harness(1000)
    entry = window.open("p")
    timers.arm(entry)
    sim.run(until=3500)
    assert len(resent) == 3
    assert timers.retransmissions == 3


def test_cancel_stops_retransmission():
    sim, window, timers, resent = _timer_harness(1000)
    entry = window.open("p")
    timers.arm(entry)
    timers.cancel(entry)
    sim.run(until=10_000)
    assert resent == []


def test_acked_entry_not_retransmitted_even_if_timer_fires():
    sim, window, timers, resent = _timer_harness(1000)
    entry = window.open("p")
    timers.arm(entry)
    window.ack(entry.seq)  # acked but timer not cancelled
    sim.run(until=5000)
    assert resent == []


def test_rearm_replaces_previous_timer():
    sim, window, timers, resent = _timer_harness(1000)
    entry = window.open("p")
    timers.arm(entry)
    sim.run(until=500)
    timers.arm(entry)  # e.g. retransmitted by other means
    sim.run(until=1400)
    assert resent == []  # original 1000 ns deadline was replaced
    sim.run(until=1600)
    assert len(resent) == 1


# ---------------------------------------------------------------------------
# Give-up / estimator-backoff interaction
# ---------------------------------------------------------------------------
def test_capped_backoff_cannot_slide_past_give_up_deadline():
    # Regression guard: with the estimator's backoff growing toward its
    # cap, the nth re-arm's natural delay can overshoot
    # ``first_sent + give_up_ns``.  The arm path must clamp the delay so the
    # timer lands exactly on the deadline and fires on_give_up there — not
    # one full backed-off delay late.
    sim = Simulator()
    window = SlidingWindow(size=4)
    resent, gave_up = [], []
    timers = RetransmitTimers(
        sim,
        window,
        1000,
        resent.append,
        give_up_ns=6000,
        on_give_up=gave_up.append,
        estimator=AdaptiveRto(1000, 500, 8000),
    )
    entry = window.open("p")
    entry.first_sent_ns = sim.now
    entry.transmissions = 1

    def resend(e):
        resent.append(sim.now)
        e.transmissions += 1

    timers._resend = resend
    timers.arm(entry)
    # Fires at 1000 (resend, estimator-doubled delay 2000 -> 3000), then
    # the next natural delay would be 4000 -> t=7000, past the 6000
    # deadline.  The clamp must pin the third firing to exactly 6000,
    # where the deadline check converts it into the give-up.
    sim.run(until=20_000)
    assert resent == [1000, 3000]
    assert timers.give_ups == 1
    assert gave_up == [entry]


def test_give_up_fire_time_is_exactly_the_deadline():
    sim = Simulator()
    window = SlidingWindow(size=4)
    fired_at = []
    timers = RetransmitTimers(
        sim,
        window,
        1000,
        lambda e: None,
        give_up_ns=2500,
        on_give_up=lambda e: fired_at.append(sim.now),
        estimator=AdaptiveRto(1000, 500, 50_000),
    )
    entry = window.open("p")
    entry.first_sent_ns = sim.now
    entry.transmissions = 1

    def resend(e):
        e.transmissions += 1

    timers._resend = resend
    timers.arm(entry)
    sim.run(until=100_000)
    # t=1000 resend (next natural delay 2000 > 2500-1000): clamped to 2500.
    assert fired_at == [2500]


# ---------------------------------------------------------------------------
# AdaptiveRto estimator
# ---------------------------------------------------------------------------
def test_adaptive_rto_starts_at_clamped_initial():
    est = AdaptiveRto(100_000, 50_000, 10_000_000)
    assert est.rto_ns() == 100_000
    est = AdaptiveRto(10, 50_000, 10_000_000)
    assert est.rto_ns() == 50_000


def test_adaptive_rto_tracks_inflation_up_and_down():
    est = AdaptiveRto(100_000, 50_000, 10_000_000)
    for _ in range(50):
        est.observe(40_000)
    calm = est.rto_ns()
    assert calm == 50_000  # srtt+4var converged under the floor: clamped
    for _ in range(50):
        est.observe(160_000)  # 4x inflation
    inflated = est.rto_ns()
    assert inflated > 160_000  # srtt ~160k plus variance headroom
    for _ in range(100):
        est.observe(40_000)
    assert est.rto_ns() < inflated  # follows the path back down


def test_adaptive_rto_timeout_backoff_resets_on_clean_sample():
    est = AdaptiveRto(100_000, 50_000, 10_000_000)
    est.observe(40_000)
    base = est.rto_ns()
    est.on_timeout()
    assert est.rto_ns() == min(base * 2, 10_000_000)
    est.on_timeout()
    assert est.rto_ns() == min(base * 4, 10_000_000)
    est.observe(40_000)  # Karn: a clean sample resets the backoff
    assert est.rto_ns() <= base


def test_adaptive_rto_rejects_bad_bounds():
    with pytest.raises(ValueError):
        AdaptiveRto(1000, 0, 10)
    with pytest.raises(ValueError):
        AdaptiveRto(1000, 100, 50)


def test_estimator_owns_delay_and_backoff():
    sim = Simulator()
    window = SlidingWindow(size=4)
    est = AdaptiveRto(1000, 500, 1_000_000)
    resent = []

    timers = RetransmitTimers(sim, window, 1000, lambda e: None, estimator=est)

    def resend(e):
        resent.append(sim.now)
        e.transmissions += 1

    timers._resend = resend
    entry = window.open("p")
    entry.first_sent_ns = sim.now
    entry.transmissions = 1
    timers.arm(entry)
    # The estimator sets every delay: firings at 1000, then
    # estimator-doubled 2000 -> 3000, 4000 -> 7000.
    sim.run(until=3500)
    assert len(resent) == 2
    assert timers.timeouts == 2


def test_note_ack_tracks_min_rtt_and_flags_spurious():
    sim = Simulator()
    window = SlidingWindow(size=8)
    timers = RetransmitTimers(sim, window, 1000, lambda e: None)

    first = window.open("a")
    first.transmissions = 1
    first.last_sent_ns = 0
    sim.call_at(400, lambda: None)
    sim.run()  # now == 400
    timers.note_ack(first)  # clean sample: min_rtt = 400
    assert timers.min_rtt_ns == 400
    assert timers.spurious_retransmissions == 0

    # A retransmitted entry whose ACK lands 100ns after its last send:
    # faster than any network round trip ever observed, so the ACK must
    # answer an earlier copy — both extra copies were spurious.
    second = window.open("b")
    second.transmissions = 3
    second.last_sent_ns = sim.now - 100
    timers.note_ack(second)
    assert timers.spurious_retransmissions == 2

    # A retransmitted entry acked slower than min_rtt is ambiguous: not
    # counted (Karn-style conservatism).
    third = window.open("c")
    third.transmissions = 2
    third.last_sent_ns = sim.now - 900
    timers.note_ack(third)
    assert timers.spurious_retransmissions == 2
