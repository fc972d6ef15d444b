"""Tests for open-ended streaming aggregation (unbounded key-value streams)."""

import random

import pytest

from repro.core.config import AskConfig
from repro.core.errors import TaskStateError
from repro.core.service import AskService
from repro.core.task import TaskPhase
from repro.net.fault import FaultModel


def test_incremental_feeds_sum_exactly():
    service = AskService(AskConfig.small(), hosts=2)
    session = service.open_stream(["h0"], receiver="h1")
    session.feed("h0", [(b"cpu", 97)])
    service.run()
    session.feed("h0", [(b"cpu", 3), (b"mem", 5)])
    session.close()
    service.run_to_completion()
    assert session.result.values == {b"cpu": 100, b"mem": 5}


def test_feed_before_setup_is_buffered():
    service = AskService(AskConfig.small(), hosts=2)
    session = service.open_stream(["h0"], receiver="h1")
    # No simulator step has run: the channel does not exist yet.
    assert not session.is_live
    session.feed("h0", [(b"a", 1)] * 10)
    session.close()
    service.run_to_completion()
    assert session.result[b"a"] == 10


def test_multiple_senders_stream_concurrently():
    rng = random.Random(4)
    service = AskService(AskConfig.small(), hosts=3)
    session = service.open_stream(["h0", "h1"], receiver="h2")
    expected: dict[bytes, int] = {}
    for round_number in range(5):
        for host in ("h0", "h1"):
            batch = [
                (("k%02d" % rng.randint(0, 15)).encode(), rng.randint(1, 9))
                for _ in range(30)
            ]
            for key, value in batch:
                expected[key] = (expected.get(key, 0) + value) & 0xFFFFFFFF
            session.feed(host, batch)
        service.run()
    session.close()
    service.run_to_completion()
    assert session.result.values == expected


def test_streaming_survives_faults():
    service = AskService(
        AskConfig.small(),
        hosts=2,
        fault=FaultModel(loss_rate=0.08, duplicate_rate=0.05, reorder_rate=0.1, seed=6),
    )
    session = service.open_stream(["h0"], receiver="h1", region_size=2)
    total = 0
    for _ in range(6):
        session.feed("h0", [(b"k", 7)] * 25)
        total += 25 * 7
        service.run()
    session.close()
    service.run_to_completion()
    assert session.result[b"k"] == total
    assert session.task.stats.retransmissions > 0


def test_no_fin_until_close():
    service = AskService(AskConfig.small(), hosts=2)
    session = service.open_stream(["h0"], receiver="h1")
    session.feed("h0", [(b"a", 1)])
    service.run()
    # Everything sent and ACKed, but the stream is open: no FIN, no result.
    assert session.task.phase is TaskPhase.STREAMING
    assert session.result is None
    session.close()
    service.run_to_completion()
    assert session.task.is_complete


def test_feed_after_close_rejected():
    service = AskService(AskConfig.small(), hosts=2)
    session = service.open_stream(["h0"], receiver="h1")
    session.close()
    with pytest.raises(TaskStateError):
        session.feed("h0", [(b"a", 1)])
    service.run_to_completion()


def test_feed_from_non_sender_rejected():
    service = AskService(AskConfig.small(), hosts=3)
    session = service.open_stream(["h0"], receiver="h2")
    with pytest.raises(KeyError):
        session.feed("h1", [(b"a", 1)])
    session.close()
    service.run_to_completion()


def test_close_before_setup_still_completes():
    service = AskService(AskConfig.small(), hosts=2)
    session = service.open_stream(["h0"], receiver="h1")
    session.feed("h0", [(b"a", 2)])
    session.close()  # closed before the control plane even allocated
    service.run_to_completion()
    assert session.result[b"a"] == 2


def test_streaming_and_batch_tasks_share_channels():
    service = AskService(AskConfig.small(), hosts=2)
    session = service.open_stream(["h0"], receiver="h1", region_size=8)
    session.feed("h0", [(b"s", 1)] * 20)
    batch = service.submit({"h0": [(b"b", 1)] * 20}, receiver="h1", region_size=8)
    session.close()
    service.run_to_completion()
    assert session.result[b"s"] == 20
    assert batch.result[b"b"] == 20


def test_validation_of_stream_endpoints():
    service = AskService(AskConfig.small(), hosts=2)
    with pytest.raises(KeyError):
        service.open_stream(["h9"], receiver="h1")
    with pytest.raises(KeyError):
        service.open_stream(["h0"], receiver="h9")
    with pytest.raises(ValueError):
        service.open_stream([], receiver="h1")


def test_feeds_accept_generators_and_count_each_tuple_once():
    # A generator is consumed by the packer, so the count fed comes from
    # the packer's tally; buffered tuples are counted when the channel
    # attaches and feeds them, not again when they were buffered.
    service = AskService(AskConfig.small(), hosts=2)
    session = service.open_stream(["h0"], receiver="h1")
    session.feed("h0", ((b"a", 1) for _ in range(5)))
    service.run()
    assert session.is_live
    session.feed("h0", ((b"k%d" % (i % 3), i) for i in range(12)))
    service.run()
    session.feed("h0", iter([(b"a", 2)]))
    session.close()
    service.run_to_completion()
    assert session.result.values == {b"a": 7, b"k0": 18, b"k1": 22, b"k2": 26}
    assert session.task.stats.input_tuples == 18
