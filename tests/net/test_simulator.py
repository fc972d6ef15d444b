"""Tests for the discrete-event simulator."""

import pytest

from repro.net.simulator import (
    NS_PER_S,
    Simulator,
    SimulationError,
    microseconds,
    milliseconds,
    seconds,
    to_seconds,
)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(5, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    sim.schedule(42, lambda: None)
    sim.run()
    assert sim.now == 42


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(5, fired.append, "inner")

    sim.schedule(10, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 15


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.schedule(100, fired.append, "b")
    sim.run(until=50)
    assert fired == ["a"]
    assert sim.now == 50
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_includes_events_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "edge")
    sim.run(until=50)
    assert fired == ["edge"]


def test_max_events_guard_raises():
    sim = Simulator()

    def loop():
        sim.schedule(1, loop)

    sim.schedule(1, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_pending_counts_live_events_only():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    event = sim.schedule(2, lambda: None)
    event.cancel()
    assert sim.pending == 1


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_max_events_ignores_trailing_cancelled_events():
    # Seed regression: run(max_events=N) checked its guard before discarding
    # cancelled heap entries, so a heap whose only remaining entries were
    # cancelled tripped the guard instead of draining.
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "live")
    sim.schedule(2, fired.append, "cancelled").cancel()
    sim.schedule(3, fired.append, "cancelled-too").cancel()
    sim.run(max_events=1)
    assert fired == ["live"]
    assert sim.pending == 0


def test_run_and_step_agree_on_events_processed():
    def drive_run():
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None) for i in range(10)]
        for event in events[1::2]:
            event.cancel()
        sim.run()
        return sim.events_processed

    def drive_step():
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None) for i in range(10)]
        for event in events[1::2]:
            event.cancel()
        while sim.step():
            pass
        return sim.events_processed

    assert drive_run() == drive_step() == 5


def test_max_events_counts_this_call_only():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    sim.schedule(1, lambda: None)
    sim.run(max_events=1)  # earlier events must not count against the guard
    assert sim.events_processed == 6


def test_late_cancel_after_fire_keeps_pending_accurate():
    sim = Simulator()
    event = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.step()
    event.cancel()  # already fired; must not decrement the live count
    assert sim.pending == 1
    sim.run()
    assert sim.events_processed == 2


def test_heap_compacts_when_cancelled_events_dominate():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(200)]
    for event in events[:150]:
        event.cancel()
    assert sim.compactions >= 1
    assert len(sim._heap) < 200  # cancelled entries were actually dropped
    assert sim.pending == 50
    sim.run()
    assert sim.events_processed == 50


def test_compaction_preserves_firing_order():
    sim = Simulator()
    fired = []
    keep = []
    for i in range(300):
        event = sim.schedule(300 - i, fired.append, 300 - i)
        if i % 3 == 0:
            keep.append(event)
    keep_set = set(map(id, keep))
    for event in [entry[2] for entry in sim._heap]:
        if id(event) not in keep_set:
            event.cancel()
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(keep)


def test_compaction_keeps_count_of_cancelled_now_queue_events():
    # Regression: compaction reset the cancelled-event counter to zero
    # although it only sweeps the heap, so a cancelled delay-0 event still
    # on the now-queue drove the counter to -1 when the drain popped it —
    # and every such drift delays the next compaction.
    sim = Simulator()
    fired = []

    def cancel_everything():
        same_instant = sim.schedule(0, fired.append, "same-instant")
        timers = [sim.schedule(i + 1, fired.append, i) for i in range(200)]
        same_instant.cancel()
        for timer in timers:
            timer.cancel()

    sim.schedule(1, cancel_everything)
    sim.run()
    assert fired == []
    assert sim.compactions >= 1
    assert sim._cancelled_in_heap == 0


# -- advance_to: the wall-clock backend moves ``now`` past queued entries
# (to the wall time of each receive), then runs what fell due.


def test_advance_to_runs_late_entries_at_the_target_instant_in_ticket_order():
    sim = Simulator()
    fired = []

    def late(tag):
        fired.append((tag, sim.now))
        sim.call_later(0, lambda: fired.append((tag + "'", sim.now)))

    sim.schedule(10, late, "a")
    sim.call_later(10, late, "b")
    sim.schedule(20, late, "c")
    sim.advance_to(100)
    # Every late entry runs at the target instant, in ticket order, and
    # before any of the delay-0 entries they pushed.
    assert fired == [
        ("a", 100), ("b", 100), ("c", 100), ("a'", 100), ("b'", 100), ("c'", 100),
    ]
    assert sim.now == 100 and sim.pending == 0


def test_now_never_rewinds_onto_a_late_entry():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: seen.append(sim.now))
    sim.call_later(30, lambda: seen.append(sim.now))
    sim.now = 50  # what the wall-clock backend does before each receive
    sim.run()
    assert seen == [50, 50]
    assert sim.now == 50
    sim.advance_to(20)
    assert sim.now == 50


def test_advance_to_at_or_before_now_runs_only_what_is_due():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "due by 20")
    sim.schedule(40, fired.append, "due by 50")
    sim.schedule(80, fired.append, "future")
    sim.now = 50
    sim.schedule(0, fired.append, "at 50")
    sim.advance_to(20)
    assert fired == ["due by 20"] and sim.now == 50
    sim.advance_to(50)
    assert fired == ["due by 20", "due by 50", "at 50"] and sim.now == 50
    assert sim.pending == 1 and sim.next_event_time() == 80


def test_step_follows_the_peek_rule_of_run():
    def program():
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(("late", sim.now)))
        sim.schedule(60, lambda: fired.append(("future", sim.now)))
        sim.now = 50
        sim.schedule(0, lambda: fired.append(("same-instant", sim.now)))
        return sim, fired

    sim, by_run = program()
    sim.run()
    sim, by_step = program()
    while sim.step():
        pass
    assert by_step == by_run == [("late", 50), ("same-instant", 50), ("future", 60)]


def test_time_unit_helpers():
    assert microseconds(1.5) == 1_500
    assert milliseconds(2) == 2_000_000
    assert seconds(1) == NS_PER_S
    assert to_seconds(NS_PER_S) == 1.0
    assert to_seconds(seconds(3.25)) == pytest.approx(3.25)

