"""The transposed packer against its frozen per-tuple oracle.

``Packer`` queues a stream in one loop and drains its lanes into a payload
plan, which builds payloads on demand by transposing the lanes;
``tests/oracles/packer.py`` is the body it replaced.  For any interleaving
of ``add``, ``add_stream`` and ``payloads`` — the shape of a streaming
session, which feeds and drains repeatedly — both must produce the same
payload list, the same ``pending`` answer, and the same ``PackStats`` field
by field, including the histogram's insertion order.  The plans a sending
job chains must replay that list exactly however often the job rewinds.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.packer import Packer, pack_stream
from repro.core.sender import SendingJob
from repro.core.task import AggregationTask
from tests.conftest import fuzz_budget
from tests.oracles.packer import ReferencePacker

CONFIGS = {
    "paper": AskConfig(),  # 16 short slots, 8 medium groups of 2
    "small": AskConfig.small(),  # 4 short slots, 2 medium groups of 2
    "wide-groups": AskConfig(
        num_aas=12, aggregators_per_aa=16, medium_key_groups=3, medium_group_width=3
    ),
    "no-groups": AskConfig.small(medium_key_groups=0),
}


def _keys(config):
    """Short, medium, long and ambiguous full-width keys for ``config``."""
    width = config.key_bytes
    medium = config.medium_key_bytes
    return st.one_of(
        st.binary(min_size=1, max_size=width),
        st.binary(min_size=width + 1, max_size=medium),
        st.binary(min_size=medium + 1, max_size=medium + 6),
        # Full-width keys whose verbatim form aliases a padded shorter key:
        # promoted to a medium group, or to the long path without groups.
        st.binary(min_size=0, max_size=width - 1).map(
            lambda k: (k + b"\x80").ljust(width, b"\x00")
        ),
        st.binary(min_size=0, max_size=medium - 1).map(
            lambda k: (k + b"\x80").ljust(medium, b"\x00")
        ),
    )


@st.composite
def _session(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    config = CONFIGS[name]
    # A small key pool, so keys repeat (route-cache hits, several packets
    # per queue, queues that run out at different packets).
    pool = draw(st.lists(_keys(config), min_size=1, max_size=24, unique=True))
    tuples = st.tuples(st.sampled_from(pool), st.integers(-(2**33), 2**40))
    op = st.one_of(
        st.tuples(st.just("add"), tuples),
        st.tuples(st.just("stream"), st.lists(tuples, max_size=80)),
        st.tuples(st.just("payloads"), st.none()),
    )
    return name, draw(st.lists(op, max_size=12))


def _assert_same_stats(product, oracle):
    for field in dataclasses.fields(oracle):
        assert getattr(product, field.name) == getattr(oracle, field.name), field.name
    assert list(product.occupancy_histogram.items()) == list(
        oracle.occupancy_histogram.items()
    )


@settings(max_examples=fuzz_budget(150), deadline=None)
@given(_session())
def test_packer_matches_the_per_tuple_oracle(session):
    name, ops = session
    config = CONFIGS[name]
    product, oracle = Packer(config), ReferencePacker(config)
    for kind, arg in ops + [("payloads", None)]:
        if kind == "add":
            product.add(*arg)
            oracle.add(*arg)
        elif kind == "stream":
            product.add_stream(arg)
            oracle.add_stream(arg)
        else:
            assert list(product.payloads()) == list(oracle.payloads())
        assert product.pending == oracle.pending
        _assert_same_stats(product.stats, oracle.stats)


def test_paper_geometry_stream_matches_the_oracle():
    """The benchmark's operating point: 512 hot keys over the paper's
    32 slots, where every queue runs out at a different packet."""
    keys = [b"k%03d" % i for i in range(512)]
    stream = [(keys[(i * 7919) % 512], i % 99 + 1) for i in range(20_000)]
    payloads, stats = pack_stream(stream, AskConfig())
    oracle = ReferencePacker(AskConfig())
    oracle.add_stream(stream)
    assert payloads == list(oracle.payloads())
    _assert_same_stats(stats, oracle.stats)


@settings(max_examples=fuzz_budget(100), deadline=None)
@given(_session(), st.data())
def test_plan_chain_replays_the_oracle_under_rewinds(session, data):
    """A streaming job chains one plan per drain.  Payloads are taken a
    random number at a time and the job rewinds at random points, as a
    supervised restart does mid-window; whatever was taken must be the
    oracle's payload at that position."""
    name, ops = session
    config = CONFIGS[name]
    product, oracle = Packer(config), ReferencePacker(config)
    task = AggregationTask(task_id=1, receiver="h1", senders=("h0",))
    job = SendingJob(task=task, dst="h1", plans=[], finished=False)
    expected = []
    for kind, arg in ops + [("payloads", None)]:
        if kind == "add":
            product.add(*arg)
            oracle.add(*arg)
        elif kind == "stream":
            product.add_stream(arg)
            oracle.add_stream(arg)
        else:
            plan = product.plan()
            drained = list(oracle.payloads())
            assert len(plan) == len(drained)
            expected.extend(drained)
            job.extend(plan)
            assert job.length == len(expected)
            if data.draw(st.booleans(), label="rewind"):
                job.rewind()
            left = job.length - job.next_payload
            for _ in range(data.draw(st.integers(0, left), label="take")):
                position = job.next_payload
                assert job.take() == expected[position]
        _assert_same_stats(product.stats, oracle.stats)
    job.rewind()
    assert [job.take() for _ in range(job.length)] == expected
    assert job.data_exhausted


def test_a_plan_rebuilds_its_payloads_on_every_pass():
    """Iterating a plan again, after a partial pass or a full one, starts
    from the lanes and gives the same payloads."""
    config = CONFIGS["small"]
    keys = [b"k%d" % i for i in range(9)] + [b"medium-k", b"x" * 40]
    stream = [(keys[(i * 5) % len(keys)], i) for i in range(300)]
    packer = Packer(config)
    packer.add_stream(stream)
    plan = packer.plan()
    assert not packer.pending
    first = iter(plan)
    head = [next(first) for _ in range(7)]
    full = list(plan)
    assert full[:7] == head
    assert list(plan) == full
    assert len(plan) == len(full)
    assert any(payload.is_long for payload in full)
    oracle = ReferencePacker(config)
    oracle.add_stream(stream)
    assert full == list(oracle.payloads())
