"""Named-stream determinism for gray slowdown jitter.

Every slowdown jitter stream is seeded from a stable name — the chaos
seed plus the link's registry name, on both backends — never from
construction order or from how many other links happen to be slowed.
These tests pin that contract: same name, same draws; different names,
independent draws; probing a closed window consumes nothing.
"""

import pytest

from repro.net.fault import LinkSlowdown


def _draws(slowdown, n=20, latency_ns=1_000):
    slowdown.active = True
    return [slowdown.extra_ns(latency_ns) for _ in range(n)]


def test_same_link_name_same_jitter_sequence():
    a = LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000)
    b = LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000)
    assert _draws(a) == _draws(b)


def test_link_name_and_seed_both_split_the_stream():
    base = _draws(LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000))
    other_link = _draws(LinkSlowdown("42:chaos-slow", "up:h1", jitter_ns=5_000))
    other_seed = _draws(LinkSlowdown("7:chaos-slow", "up:h0", jitter_ns=5_000))
    assert base != other_link
    assert base != other_seed


def test_interleaved_draws_cannot_perturb_each_other():
    # Two links slowed at once: alternating their packets must yield the
    # exact sequences each link produces when slowed alone.
    solo_a = _draws(LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000))
    solo_b = _draws(LinkSlowdown("42:chaos-slow", "dn:h1", jitter_ns=5_000))
    a = LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000)
    b = LinkSlowdown("42:chaos-slow", "dn:h1", jitter_ns=5_000)
    a.active = b.active = True
    mixed_a, mixed_b = [], []
    for _ in range(20):
        mixed_a.append(a.extra_ns(1_000))
        mixed_b.append(b.extra_ns(1_000))
    assert mixed_a == solo_a
    assert mixed_b == solo_b


def test_closed_window_draws_nothing():
    probed = LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000)
    for _ in range(50):
        assert probed.extra_ns(1_000) == 0
    assert probed.packets_slowed == 0
    fresh = LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000)
    # Closed-window probes consumed no jitter draws: both streams align.
    assert _draws(probed) == _draws(fresh)
    assert probed.packets_slowed == 20


def test_reopened_window_continues_the_stream():
    straight = _draws(LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000))
    paused = LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=5_000)
    first = _draws(paused, n=8)
    paused.active = False
    assert paused.extra_ns(1_000) == 0  # window closed mid-run
    second = _draws(paused, n=12)
    assert first + second == straight


def test_without_jitter_delay_is_pure_multiplier():
    s = LinkSlowdown("42:chaos-slow", "up:h0", multiplier=4.0)
    s.active = True
    assert s.extra_ns(1_000) == 3_000  # latency * (multiplier - 1)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError, match="multiplier"):
        LinkSlowdown("42:chaos-slow", "up:h0", multiplier=0.5)
    with pytest.raises(ValueError, match="jitter"):
        LinkSlowdown("42:chaos-slow", "up:h0", jitter_ns=-1)


# ---------------------------------------------------------------------------
# Both backends: one LinkSlowdown per link, named {seed}:chaos-slow:{link}
# ---------------------------------------------------------------------------
_MESH = {"r0": ("h0", "h1"), "r1": ("h2",)}


def _slowed_links(backend, seed, order):
    """Open a slow window on h0 and the r1 TOR; return each slowed link's
    first ten jitter draws, queried link by link in ``order``."""
    from repro.core.config import AskConfig
    from repro.core.service import AskService
    from repro.net.fault import FaultModel

    with AskService(
        AskConfig.small(), fault=FaultModel(seed=seed), backend=backend, racks=_MESH
    ) as service:
        service.topology.slow_jitter_ns = 5_000
        service.topology.slow("h0")
        service.topology.slow("tor-r1")
        slowed = {
            name: link.slowdown
            for name, _src, _dst, link in service.topology.links()
            if link.slowdown is not None
        }
        return {name: _draws(slowed[name], n=10, latency_ns=0) for name in order(slowed)}


def test_asyncio_link_streams_are_query_order_independent():
    forward = _slowed_links("asyncio", 42, sorted)
    backward = _slowed_links("asyncio", 42, lambda names: sorted(names, reverse=True))
    # Same seed, same link -> same draws, whichever link is drawn first.
    assert forward == backward
    # And the links are genuinely independent streams.
    assert len({tuple(v) for v in forward.values()}) == len(forward)


def test_asyncio_link_streams_depend_on_the_chaos_seed():
    assert _slowed_links("asyncio", 42, sorted) == _slowed_links("asyncio", 42, sorted)
    assert _slowed_links("asyncio", 42, sorted) != _slowed_links("asyncio", 7, sorted)


def test_slow_windows_take_the_same_links_and_streams_on_both_backends():
    sim = _slowed_links("sim", 42, sorted)
    udp = _slowed_links("asyncio", 42, sorted)
    assert list(udp) == [
        "core:r0->r1", "core:r1->r0", "h0->switch", "h2->switch", "switch->h0", "switch->h2",
    ]
    assert udp == sim
