"""Property-based equivalence: optimized hot paths vs the seed oracles.

The O(1) reimplementations in :mod:`repro.transport.window`,
:mod:`repro.transport.reliability` and :mod:`repro.net.simulator` must make
byte-identical decisions to the seed code frozen in ``tests/oracles/``
(``windows.py`` and ``simulator.py``).  Hypothesis drives both through
random loss/reorder/duplication schedules and random open/ack
interleavings and compares every observable at every step.  The last test
pins one whole lossy service run to the schedule it had when the full seed
path still ran beside the optimized one and matched it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import reference_aggregate
from repro.net.simulator import Simulator
from repro.transport.reliability import ReceiveWindow
from repro.transport.window import SlidingWindow
from tests.conftest import fuzz_budget
from tests.oracles.simulator import ReferenceSimulator
from tests.oracles.windows import ReferenceReceiveWindow, ReferenceSlidingWindow


# ---------------------------------------------------------------------------
# ReceiveWindow ≡ ReferenceReceiveWindow
# ---------------------------------------------------------------------------
@given(
    window=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=200, deadline=None)
def test_receive_window_decisions_match_reference(window, seed, length):
    """A lossy/reordered/duplicated arrival stream gets identical verdicts."""
    rng = random.Random(seed)
    new = ReceiveWindow(window)
    ref = ReferenceReceiveWindow(window)
    next_seq = 0
    inflight: list[int] = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5 or not inflight:
            # fresh transmission (possibly several, simulating a burst)
            inflight.append(next_seq)
            next_seq += 1
        if roll < 0.15 and inflight:
            # duplicate of something still in flight
            inflight.append(rng.choice(inflight))
        if not inflight:
            continue
        # deliver a random in-flight packet (reordering), sometimes keeping
        # it around (duplication), sometimes dropping one (loss)
        index = rng.randrange(len(inflight))
        seq = inflight[index]
        if rng.random() < 0.8:
            inflight.pop(index)
        if rng.random() < 0.1 and inflight:
            inflight.pop(rng.randrange(len(inflight)))  # loss
        assert new.is_new(seq) == ref.is_new(seq), f"seq {seq} diverged"
        assert new.max_seq == ref.max_seq
        assert new.accepted == ref.accepted
        assert new.duplicates == ref.duplicates
        # The ring's live set must match the reference set *within the live
        # window* (the reference deliberately retains the seed's floor==0
        # leak, so compare only above the floor).
        floor = ref.max_seq - ref.window
        assert new._seen == {s for s in ref._seen if s > floor}


@given(
    seqs=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
    window=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_receive_window_arbitrary_sequences_match_reference(seqs, window):
    """Even adversarial (non-protocol) arrival orders get identical verdicts."""
    new = ReceiveWindow(window)
    ref = ReferenceReceiveWindow(window)
    for seq in seqs:
        assert new.is_new(seq) == ref.is_new(seq)
    assert (new.accepted, new.duplicates) == (ref.accepted, ref.duplicates)


# ---------------------------------------------------------------------------
# SlidingWindow ≡ ReferenceSlidingWindow
# ---------------------------------------------------------------------------
@given(
    size=st.integers(min_value=1, max_value=8),
    ops=st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=200),
)
@settings(max_examples=200, deadline=None)
def test_sliding_window_decisions_match_reference(size, ops):
    """Random open/ack interleavings leave both windows in identical states.

    Each op draw picks open vs ack; acks target a pseudo-random in-flight
    (or already-acked, for the duplicate-ack path) sequence number.
    """
    new = SlidingWindow(size)
    ref = ReferenceSlidingWindow(size)
    for op in ops:
        assert new.base == ref.base
        assert new.can_send() == ref.can_send()
        if op % 2 == 0 and new.can_send():
            opened_new = new.open(payload=op)
            opened_ref = ref.open(payload=op)
            assert opened_new.seq == opened_ref.seq
        else:
            # ack a pseudo-random seq at or below next_seq: sometimes
            # in flight, sometimes already acked, sometimes never opened
            if new.next_seq == 0:
                continue
            seq = op % (new.next_seq + 1)
            acked_new = new.ack(seq)
            acked_ref = ref.ack(seq)
            assert (acked_new is None) == (acked_ref is None)
            if acked_new is not None:
                assert acked_new.seq == acked_ref.seq
        assert new.base == ref.base
        assert new.next_seq == ref.next_seq
        assert new.in_flight == ref.in_flight
        assert new.is_empty == ref.is_empty
        assert [e.seq for e in new.outstanding()] == [
            e.seq for e in ref.outstanding()
        ]


# ---------------------------------------------------------------------------
# Simulator ≡ ReferenceSimulator
# ---------------------------------------------------------------------------
def _drain(sim, drive, rng):
    """Drain ``sim`` to quiescence in one of the four drive modes."""
    if drive == "run":
        sim.run()
    elif drive == "budget":  # what AskService.run_to_completion() uses
        sim.run(max_events=10**9)
    elif drive == "step":
        while sim.step():
            pass
    else:  # conservative-PDES windows: exclusive horizons of random width
        while sim.pending:
            horizon = sim.now + 1 + rng.randrange(30)
            if isinstance(sim, Simulator):
                sim.drain_until(horizon)
            else:
                sim.run(until=horizon - 1)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=120),
    drive=st.sampled_from(["run", "budget", "windows", "step"]),
    shard_rank=st.none() | st.integers(min_value=0, max_value=3),
    mixed_api=st.booleans(),
    span=st.sampled_from([3, 100]),
)
@settings(max_examples=fuzz_budget(200), deadline=None)
def test_simulator_schedule_matches_reference(
    seed, n_events, drive, shard_rank, mixed_api, span
):
    """Random schedule/cancel/nested-schedule programs fire identically —
    in every drive mode, under plain and shard-composite order tickets,
    and through any mix of the four push methods.  A small ``span`` packs
    events onto shared instants, so same-time heap entries, delay-0 pushes
    and the FIFO all meet.  This is the property that fails if the one
    drain loop or the ticket branch ever diverges."""

    def program(sim_cls):
        sim = sim_cls()
        if shard_rank is not None and sim_cls is Simulator:
            sim.enable_shard_order(shard_rank)
        fired = []
        rng = random.Random(seed)
        events = []

        def push(delay, *args):
            how = rng.randrange(4) if mixed_api else 0
            if how == 0:
                events.append(sim.schedule(delay, cb, *args))
            elif how == 1:
                events.append(sim.at(sim.now + delay, cb, *args))
            elif how == 2:
                sim.call_later(delay, cb, *args)
            else:
                sim.call_at(sim.now + delay, cb, *args)

        def cb(tag):
            fired.append((sim.now, tag))
            if rng.random() < 0.3:
                push(rng.randrange(span), f"n{tag}")
            if rng.random() < 0.3 and events:
                events[rng.randrange(len(events))].cancel()

        for i in range(n_events):
            push(rng.randrange(10 * span), i)
            if rng.random() < 0.25 and events:
                events[rng.randrange(len(events))].cancel()
        _drain(sim, drive, random.Random(seed + 1))
        return fired, sim.now, sim.events_processed

    assert program(Simulator) == program(ReferenceSimulator)


# ---------------------------------------------------------------------------
# End-to-end: a full lossy service run repeats its recorded schedule
# ---------------------------------------------------------------------------
#: (events processed, final sim time ns, retransmissions, data packets
#: sent, packets received, duplicates dropped, sender packets, receiver
#: packets).  Recorded while the seed path (packets, links, fault draws,
#: registers, switch and receiver loops, windows) could still be patched in
#: beside the optimized one and produced this same tuple.  The simulator was
#: not part of that: both sides ran the optimized one, so
#: ``test_simulator_schedule_matches_reference`` above is its oracle check.
#: A change that moves any of it changed the lossy schedule.
LOSSY_RUN_SCHEDULE = (3277, 1_710_317, 258, 424, 240, 144, 684, (240, 145))


def test_full_lossy_service_run_repeats_recorded_schedule():
    from repro import AskConfig, AskService, FaultModel

    config = AskConfig.small(window_size=16, retransmit_timeout_us=50.0)
    fault = FaultModel(
        loss_rate=0.08,
        duplicate_rate=0.05,
        reorder_rate=0.15,
        max_extra_delay_ns=150_000,
        seed=11,
    )
    service = AskService(config, hosts=3, fault=fault)
    rng = random.Random(3)
    keys = [("k%02d" % i).encode() for i in range(64)]
    streams = {
        f"h{i}": [(rng.choice(keys), rng.randint(1, 9)) for _ in range(800)]
        for i in range(2)
    }
    result = service.aggregate(streams, receiver="h2")
    schedule = (
        service.sim.events_processed,
        service.sim.now,
        result.stats.retransmissions,
        result.stats.data_packets_sent,
        result.stats.packets_received,
        result.stats.duplicate_packets_dropped,
        sum(d.sender_packets() for d in service.daemons.values()),
        service.daemons["h2"].receiver_packets(),
    )
    assert schedule == LOSSY_RUN_SCHEDULE
    assert dict(result.items()) == reference_aggregate(streams, config.value_mask)
