"""Memory guard: a sender holds its lanes and its window, not its packets.

``HostDaemon.start_sending`` packs a stream into per-lane key lists and
value arrays and hands the channel a payload plan; the channel builds each
payload when its window opens the entry.  So after the job starts, the
packer and the sender hold about 13 bytes per queued tuple plus one
window of payloads, where building every payload up front held ~75 bytes
per tuple for the job's lifetime.  A payload is a key column and a value
column, with no object per tuple; the whole comes to 20.0 bytes per
queued tuple, so the bound leaves about one byte of headroom.
"""

import gc
import tracemalloc

from repro import AskConfig, AskService
from repro.core import packer, sender
from repro.core.packer import PackedPayload
from repro.core.task import AggregationTask

_TUPLES = 40_000


def _live_payloads():
    return sum(type(obj) is PackedPayload for obj in gc.get_objects())


def test_start_sending_holds_lanes_and_a_window_of_payloads():
    # The benchmark's operating point: paper geometry, 512 hot keys.
    keys = [b"k%03d" % i for i in range(512)]
    stream = [(keys[(i * 7919) % 512], i % 99 + 1) for i in range(_TUPLES)]
    service = AskService(AskConfig(), hosts=2)
    window = service.config.window_size
    daemon = service.daemons["h0"]
    task = AggregationTask(task_id=1, receiver="h1", senders=("h0",))
    gc.collect()
    before = _live_payloads()
    tracemalloc.start()
    try:
        job = daemon.start_sending(task, stream)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, packer.__file__), tracemalloc.Filter(True, sender.__file__)]
    )
    held_bytes = sum(stat.size for stat in held.statistics("filename"))
    assert daemon.shm.get(1).tuples is stream  # one copy of the stream
    assert job.length > window  # the stream is many windows long
    assert job.next_payload == window
    assert held_bytes <= 21 * _TUPLES, f"{held_bytes / _TUPLES:.1f} B per queued tuple"
    assert _live_payloads() - before <= window
