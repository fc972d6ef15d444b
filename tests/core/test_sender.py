"""Tests for the sender data channel: window, retransmission, FIN, FIFO."""

import pytest

from repro.core.config import AskConfig
from repro.core.packer import Packer, pack_stream
from repro.core.packet import ack_for
from repro.core.sender import SenderChannel, SendingJob
from repro.core.task import AggregationTask
from repro.net.simulator import Simulator


def _harness(window=4, rto_us=100.0):
    cfg = AskConfig.small(window_size=window, retransmit_timeout_us=rto_us)
    sim = Simulator()
    sent = []
    channel = SenderChannel("h0", 0, sim, cfg, sent.append, switch_names=frozenset({"switch"}))
    return cfg, sim, sent, channel


def _job(cfg, tuples, completions=None):
    task = AggregationTask(task_id=1, receiver="h1", senders=("h0",))
    packer = Packer(cfg)
    packer.add_stream(tuples)
    done = (completions.append if completions is not None else None)
    return SendingJob(task=task, dst="h1", plans=[packer.plan()], on_complete=done)


def _ack(channel, pkt, replier="switch"):
    channel.on_ack(ack_for(pkt, replier))


def test_sends_up_to_window_then_stalls():
    cfg, sim, sent, channel = _harness(window=4)
    job = _job(cfg, [(b"cat", 1)] * 10)  # 10 single-tuple payloads
    channel.enqueue(job)
    assert len(sent) == 4
    assert [p.seq for p in sent] == [0, 1, 2, 3]


def test_ack_advances_window_and_releases_more():
    cfg, sim, sent, channel = _harness(window=4)
    channel.enqueue(_job(cfg, [(b"cat", 1)] * 10))
    _ack(channel, sent[0])
    assert [p.seq for p in sent] == [0, 1, 2, 3, 4]


def test_window_blocks_on_missing_base_ack():
    cfg, sim, sent, channel = _harness(window=4)
    channel.enqueue(_job(cfg, [(b"cat", 1)] * 10))
    # ACK 1..3 but not 0: base stays at 0, nothing new may be sent.
    for pkt in list(sent[1:4]):
        _ack(channel, pkt)
    assert len(sent) == 4


def test_duplicate_acks_are_harmless():
    cfg, sim, sent, channel = _harness(window=4)
    channel.enqueue(_job(cfg, [(b"cat", 1)] * 6))
    _ack(channel, sent[0])
    _ack(channel, sent[0])
    assert [p.seq for p in sent] == [0, 1, 2, 3, 4]


def test_timeout_retransmits_same_seq():
    cfg, sim, sent, channel = _harness(window=2, rto_us=10.0)
    channel.enqueue(_job(cfg, [(b"cat", 1)]))
    sim.run(until=9_999)
    assert len(sent) == 1
    sim.run(until=10_050)
    assert len(sent) >= 2
    assert sent[1].seq == sent[0].seq
    assert channel.active_job.task.stats.retransmissions >= 1


def test_ack_cancels_retransmission():
    cfg, sim, sent, channel = _harness(window=2, rto_us=10.0)
    channel.enqueue(_job(cfg, [(b"cat", 1)]))
    _ack(channel, sent[0])
    sim.run(until=100_000)
    data = [p for p in sent if p.is_data]
    assert len(data) == 1


def test_fin_sent_after_all_data_acked():
    cfg, sim, sent, channel = _harness(window=4)
    channel.enqueue(_job(cfg, [(b"cat", 1)] * 2))
    assert not any(p.is_fin for p in sent)
    _ack(channel, sent[0])
    assert not any(p.is_fin for p in sent)
    _ack(channel, sent[1])
    fins = [p for p in sent if p.is_fin]
    assert len(fins) == 1
    assert fins[0].seq == 2  # FIN occupies the next sequence number


def test_job_completes_when_fin_acked():
    cfg, sim, sent, channel = _harness(window=4)
    completions = []
    channel.enqueue(_job(cfg, [(b"cat", 1)], completions=completions))
    _ack(channel, sent[0])
    assert completions == []
    fin = next(p for p in sent if p.is_fin)
    _ack(channel, fin, replier="h1")
    assert len(completions) == 1
    assert channel.idle


def test_jobs_served_fifo():
    cfg, sim, sent, channel = _harness(window=4)
    first_done = []
    channel.enqueue(_job(cfg, [(b"cat", 1)], completions=first_done))
    second = _job(cfg, [(b"dog", 1)])
    channel.enqueue(second)
    # Nothing of the second job is sent while the first is in flight.
    assert all(p.task_id == 1 or p.is_fin for p in sent)
    assert len([p for p in sent if p.is_data]) == 1
    _ack(channel, sent[0])
    fin = next(p for p in sent if p.is_fin)
    _ack(channel, fin, replier="h1")
    # Now the second job's data flows, continuing the channel's seq space.
    assert sent[-1].is_data
    assert sent[-1].seq == 2


def test_ack_replier_attribution():
    cfg, sim, sent, channel = _harness(window=4)
    job = _job(cfg, [(b"cat", 1), (b"cat", 2)])
    channel.enqueue(job)
    _ack(channel, sent[0], replier="switch")
    _ack(channel, sent[1], replier="h1")
    assert job.task.stats.acks_from_switch == 1
    assert job.task.stats.acks_from_receiver == 1


def test_fin_retries_when_congestion_window_shut_at_drain():
    # Seed regression: if the last data ACK arrives while the congestion
    # window is shut, _pump() finds the job drained but _admits() False and
    # simply returns.  No outstanding packet remains to generate another
    # ACK, so nothing ever re-pumps the channel: the FIN is never sent and
    # the job stalls forever.  The fix self-schedules a zero-delay retry.
    cfg = AskConfig.small(
        window_size=4,
        retransmit_timeout_us=100.0,
        congestion_control=True,
        cwnd_initial=2.0,
    )
    sim = Simulator()
    sent = []
    channel = SenderChannel(
        "h0", 0, sim, cfg, sent.append, switch_names=frozenset({"switch"})
    )
    completions = []
    channel.enqueue(_job(cfg, [(b"cat", 1)], completions=completions))
    assert len(sent) == 1

    # Shut the window via the ECN halving path: with the floor lowered,
    # the final (congestion-echo) ACK halves cwnd below one packet, so the
    # post-ACK pump refuses the FIN.  (The invariant minimum >= 1 normally
    # prevents this; tampering stands in for an adversarial ECN storm.)
    channel.congestion.minimum = 0.0
    channel.congestion.cwnd = 0.5
    channel.on_ack(ack_for(sent[0].with_ecn(), "switch"))
    assert not any(p.is_fin for p in sent)  # FIN admission was refused

    # Reopen the window; the self-scheduled retry must send the FIN
    # without any further external stimulus.  (run bounded below the RTO so
    # the FIN's own retransmit timer does not fire.)
    channel.congestion.cwnd = 1.0
    sim.run(until=50_000)
    fins = [p for p in sent if p.is_fin]
    assert len(fins) == 1

    _ack(channel, fins[0], replier="h1")
    assert len(completions) == 1
    assert channel.idle


def test_fin_retry_not_scheduled_twice():
    cfg = AskConfig.small(
        window_size=4,
        retransmit_timeout_us=100.0,
        congestion_control=True,
        cwnd_initial=2.0,
    )
    sim = Simulator()
    sent = []
    channel = SenderChannel(
        "h0", 0, sim, cfg, sent.append, switch_names=frozenset({"switch"})
    )
    channel.enqueue(_job(cfg, [(b"cat", 1)]))
    channel.congestion.minimum = 0.0
    channel.congestion.cwnd = 0.5
    channel.on_ack(ack_for(sent[0].with_ecn(), "switch"))
    pending_after_ack = sim.pending
    # Repeated pumps while the retry is pending must not pile up events.
    channel._pump()
    channel._pump()
    assert sim.pending == pending_after_ack


def test_stats_count_first_transmissions_only():
    cfg, sim, sent, channel = _harness(window=2, rto_us=5.0)
    job = _job(cfg, [(b"cat", 1)])
    channel.enqueue(job)
    sim.run(until=26_000)  # several retransmissions
    assert job.task.stats.data_packets_sent == 1
    assert job.task.stats.retransmissions >= 3


def _wire(packet):
    return (packet.is_long, packet.bitmap, packet.keys, packet.values)


def test_abort_mid_window_then_replay_emits_the_identical_payloads():
    # Supervised restart withdraws the in-window entries and rewinds the
    # job; its plan rebuilds every payload from the lanes, so the replay
    # (with fresh sequence numbers) carries exactly the first pass's
    # payloads, in order, short, medium and long keys alike.
    cfg, sim, sent, channel = _harness(window=4)
    keys = [b"k%d" % i for i in range(7)] + [b"medium-k", b"x" * 40]
    tuples = [(keys[(i * 3) % len(keys)], i + 1) for i in range(90)]
    job = _job(cfg, tuples)
    expected = pack_stream(tuples, cfg)[0]
    assert len(expected) > 8
    channel.enqueue(job)
    for packet in list(sent[:3]):
        _ack(channel, packet)
    first_pass = [p for p in sent if p.is_data]
    assert len(first_pass) == 7 and channel.window.in_flight == 4
    assert channel.abort_job(job) == 4
    assert channel.window.is_empty and job.next_payload == 0
    sent.clear()
    channel.requeue(job)
    while not any(p.is_fin for p in sent):
        _ack(channel, next(p for p in sent if channel.window.get(p.seq)))
    replay = [p for p in sent if p.is_data]
    assert [p.seq for p in replay] == list(range(7, 7 + len(expected)))
    assert [_wire(p) for p in replay] == [
        (payload.is_long, payload.bitmap, payload.keys, payload.values) for payload in expected
    ]
    assert [_wire(p) for p in first_pass] == [_wire(p) for p in replay[:7]]
