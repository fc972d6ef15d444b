"""Tests for fault injection."""

import pytest

from repro.net.fault import FaultModel


def test_reliable_model_never_injects():
    model = FaultModel.reliable()
    assert model.is_reliable
    for _ in range(1000):
        decision = model.decide()
        assert not decision.drop
        assert not decision.duplicate
        assert decision.extra_delay_ns == 0


def test_rates_must_be_probabilities():
    with pytest.raises(ValueError):
        FaultModel(loss_rate=1.5)
    with pytest.raises(ValueError):
        FaultModel(duplicate_rate=-0.1)
    with pytest.raises(ValueError):
        FaultModel(reorder_rate=2.0)


def test_loss_rate_one_drops_everything():
    model = FaultModel(loss_rate=1.0, seed=1)
    assert all(model.decide().drop for _ in range(100))


def test_duplicate_rate_one_duplicates_every_survivor():
    model = FaultModel(duplicate_rate=1.0, seed=1)
    for _ in range(100):
        decision = model.decide()
        assert decision.duplicate
        assert decision.duplicate_delay_ns >= 1


def test_same_seed_same_schedule():
    a = FaultModel(loss_rate=0.3, duplicate_rate=0.2, reorder_rate=0.2, seed=99)
    b = FaultModel(loss_rate=0.3, duplicate_rate=0.2, reorder_rate=0.2, seed=99)
    for _ in range(500):
        da, db = a.decide(), b.decide()
        assert (da.drop, da.duplicate, da.extra_delay_ns, da.duplicate_delay_ns) == (
            db.drop,
            db.duplicate,
            db.extra_delay_ns,
            db.duplicate_delay_ns,
        )


def test_different_seeds_differ():
    a = FaultModel(loss_rate=0.5, seed=1)
    b = FaultModel(loss_rate=0.5, seed=2)
    outcomes_a = [a.decide().drop for _ in range(200)]
    outcomes_b = [b.decide().drop for _ in range(200)]
    assert outcomes_a != outcomes_b


def test_loss_rate_statistics():
    model = FaultModel(loss_rate=0.25, seed=7)
    drops = sum(model.decide().drop for _ in range(10_000))
    assert 2_200 < drops < 2_800


def test_reorder_delay_bounded():
    model = FaultModel(reorder_rate=1.0, max_extra_delay_ns=500, seed=3)
    for _ in range(200):
        assert 1 <= model.decide().extra_delay_ns <= 500


def test_dropped_packet_not_also_duplicated():
    model = FaultModel(loss_rate=1.0, duplicate_rate=1.0, seed=5)
    decision = model.decide()
    assert decision.drop and not decision.duplicate


def test_is_reliable_false_with_any_rate():
    assert not FaultModel(loss_rate=0.01).is_reliable
    assert not FaultModel(duplicate_rate=0.01).is_reliable
    assert not FaultModel(reorder_rate=0.01).is_reliable


# ----------------------------------------------------------------------
# Per-link derivation (name-keyed child seeds)
# ----------------------------------------------------------------------
def _schedule(model, n=200):
    return [
        (d.drop, d.duplicate, d.extra_delay_ns, d.duplicate_delay_ns)
        for d in (model.decide() for _ in range(n))
    ]


def test_derive_is_stable_for_a_label():
    template = FaultModel(loss_rate=0.3, reorder_rate=0.1, seed=42)
    assert _schedule(template.derive("h0->switch")) == _schedule(
        template.derive("h0->switch")
    )


def test_derive_differs_across_labels():
    template = FaultModel(loss_rate=0.5, seed=42)
    assert _schedule(template.derive("h0->switch")) != _schedule(
        template.derive("h1->switch")
    )


def test_derive_keeps_rates():
    template = FaultModel(
        loss_rate=0.3, duplicate_rate=0.2, reorder_rate=0.1,
        max_extra_delay_ns=123, seed=9,
    )
    child = template.derive("x")
    assert (child.loss_rate, child.duplicate_rate, child.reorder_rate) == (
        0.3, 0.2, 0.1,
    )
    assert child.max_extra_delay_ns == 123
    assert child.seed != template.seed


def test_derive_does_not_consume_template_rng():
    a = FaultModel(loss_rate=0.5, seed=11)
    b = FaultModel(loss_rate=0.5, seed=11)
    a.derive("one"), a.derive("two")
    assert _schedule(a) == _schedule(b)


def test_link_faults_independent_of_construction_order():
    """The per-link loss sequence keys on the link name alone: attaching
    hosts in a different order must leave every link's schedule untouched
    (the seed implementation salted seeds with a construction counter,
    so reordering rewired every link's fault stream)."""
    from repro.core.packet import AskPacket, PacketFlag
    from repro.net.multirack import MultiRackTopology
    from repro.net.simulator import Simulator

    class Sink:
        def __init__(self, name):
            self.name = name
            self.got = []

        def receive(self, packet):
            self.got.append(packet.seq)

    def deliveries(host_order):
        sim = Simulator()
        switch = Sink("switch")
        rack = MultiRackTopology(sim, fault=FaultModel(loss_rate=0.4, seed=5))
        rack.one_rack = True
        rack.add_rack("r0", switch)
        hosts = {name: Sink(name) for name in host_order}
        for name in host_order:
            rack.attach_host("r0", hosts[name])
        for seq in range(100):
            rack.send_to_switch(
                "h1",
                AskPacket(PacketFlag.DATA, 1, "h1", "switch", 0, seq),
                100,
            )
        sim.run()
        return switch.got

    assert deliveries(["h0", "h1", "h2"]) == deliveries(["h2", "h1", "h0"])


# ----------------------------------------------------------------------
# Gilbert–Elliott burst loss
# ----------------------------------------------------------------------
def test_burst_params_must_be_probabilities():
    from repro.net.fault import GilbertElliott

    with pytest.raises(ValueError):
        GilbertElliott(p_good_bad=1.2)
    with pytest.raises(ValueError):
        GilbertElliott(p_bad_good=-0.1)
    with pytest.raises(ValueError):
        GilbertElliott(loss_good=3.0)
    with pytest.raises(ValueError):
        GilbertElliott(loss_bad=-1.0)


def test_burst_absorbing_bad_state_eventually_drops_everything():
    from repro.net.fault import GilbertElliott

    model = FaultModel(
        burst=GilbertElliott(p_good_bad=1.0, p_bad_good=0.0, loss_bad=1.0),
        seed=1,
    )
    # Every packet transitions good→bad before its loss draw, so all drop.
    assert all(model.decide().drop for _ in range(200))


def test_burst_never_entering_bad_state_never_drops():
    from repro.net.fault import GilbertElliott

    model = FaultModel(
        burst=GilbertElliott(p_good_bad=0.0, p_bad_good=0.5, loss_bad=1.0),
        seed=2,
    )
    assert not any(model.decide().drop for _ in range(1000))


def _max_drop_run(drops):
    best = run = 0
    for dropped in drops:
        run = run + 1 if dropped else 0
        best = max(best, run)
    return best


def test_burst_loss_is_correlated_where_iid_is_not():
    """At a matched ~50% marginal loss rate, the Gilbert–Elliott chain
    produces loss runs far longer than i.i.d. loss — the regime that
    actually stresses retransmission timers."""
    from repro.net.fault import GilbertElliott

    # Stationary P(bad) = 0.05 / (0.05 + 0.05) = 0.5; loss_bad=1 gives a
    # ~0.5 marginal drop rate with mean sojourn 1/0.05 = 20 packets.
    bursty = FaultModel(
        burst=GilbertElliott(p_good_bad=0.05, p_bad_good=0.05, loss_bad=1.0),
        seed=7,
    )
    iid = FaultModel(loss_rate=0.5, seed=7)
    n = 5_000
    burst_drops = [bursty.decide().drop for _ in range(n)]
    iid_drops = [iid.decide().drop for _ in range(n)]
    assert 0.35 < sum(burst_drops) / n < 0.65
    assert _max_drop_run(burst_drops) > 2 * _max_drop_run(iid_drops)


def test_burst_schedule_is_seed_deterministic():
    from repro.net.fault import GilbertElliott

    chain = GilbertElliott(p_good_bad=0.1, p_bad_good=0.3, loss_bad=0.8)
    a = FaultModel(burst=chain, duplicate_rate=0.2, reorder_rate=0.2, seed=99)
    b = FaultModel(burst=chain, duplicate_rate=0.2, reorder_rate=0.2, seed=99)
    assert _schedule(a, 500) == _schedule(b, 500)


def test_derive_keeps_burst_chain():
    from repro.net.fault import GilbertElliott

    chain = GilbertElliott(p_good_bad=0.2, p_bad_good=0.4, loss_bad=0.9)
    child = FaultModel(burst=chain, seed=3).derive("h0->switch")
    assert child.burst == chain
    # ... and a derived bursty link is itself stable per label.
    assert _schedule(child) == _schedule(FaultModel(burst=chain, seed=3).derive("h0->switch"))


def test_lossless_burst_chain_is_reliable():
    from repro.net.fault import GilbertElliott

    lossless = GilbertElliott(p_good_bad=0.5, p_bad_good=0.5, loss_good=0.0, loss_bad=0.0)
    assert lossless.is_lossless
    assert FaultModel(burst=lossless).is_reliable
    assert not FaultModel(burst=GilbertElliott(loss_bad=0.1)).is_reliable


def test_draw_order_contract_without_burst():
    """decide() draws loss → reorder → duplicate, at most one draw each,
    plus one delay draw per armed outcome.  Replaying the raw RNG in that
    documented order must reproduce the model's schedule exactly — the
    determinism contract that keeps old seeds stable as features land."""
    import random

    model = FaultModel(
        loss_rate=0.3, reorder_rate=0.4, duplicate_rate=0.5,
        max_extra_delay_ns=1000, seed=21,
    )
    rng = random.Random(21)
    for _ in range(500):
        decision = model.decide()
        if rng.random() < 0.3:
            assert decision.drop
            continue
        assert not decision.drop
        extra = rng.randint(1, 1000) if rng.random() < 0.4 else 0
        assert decision.extra_delay_ns == extra
        if rng.random() < 0.5:
            assert decision.duplicate
            assert decision.duplicate_delay_ns == rng.randint(1, 1000)
        else:
            assert not decision.duplicate


# ----------------------------------------------------------------------
# Corruption injection
# ----------------------------------------------------------------------
def test_corrupt_rate_must_be_probability():
    with pytest.raises(ValueError):
        FaultModel(corrupt_rate=1.5)
    with pytest.raises(ValueError):
        FaultModel(corrupt_rate=-0.1)


def test_corrupt_rate_one_corrupts_every_survivor():
    model = FaultModel(corrupt_rate=1.0, seed=3)
    for _ in range(100):
        decision = model.decide()
        assert decision.corrupt
        # A corrupted frame is never also duplicated or delayed: the
        # injected-corruption count stays one-to-one with deliveries.
        assert not decision.duplicate
        assert decision.extra_delay_ns == 0


def test_corrupt_rate_included_in_reliability_and_derive():
    model = FaultModel(corrupt_rate=0.25, seed=5)
    assert not model.is_reliable
    child = model.derive("h0->switch")
    assert child.corrupt_rate == 0.25
    assert not child.is_reliable


def test_zero_corrupt_rate_keeps_old_schedules_bit_identical():
    """Adding the corrupt field must not perturb any existing seeded
    schedule: a zero rate draws nothing from the RNG."""
    legacy = FaultModel(loss_rate=0.3, duplicate_rate=0.2, reorder_rate=0.2, seed=99)
    extended = FaultModel(
        loss_rate=0.3, duplicate_rate=0.2, reorder_rate=0.2, seed=99, corrupt_rate=0.0
    )
    for _ in range(500):
        da, db = legacy.decide(), extended.decide()
        assert (da.drop, da.duplicate, da.extra_delay_ns, da.duplicate_delay_ns) == (
            db.drop,
            db.duplicate,
            db.extra_delay_ns,
            db.duplicate_delay_ns,
        )


def test_draw_order_contract_with_corruption():
    """loss → corrupt → reorder → duplicate, corrupt returns early."""
    import random as _random

    model = FaultModel(
        loss_rate=0.2, corrupt_rate=0.3, reorder_rate=0.4, duplicate_rate=0.5,
        max_extra_delay_ns=1000, seed=77,
    )
    rng = _random.Random(77)
    for _ in range(500):
        decision = model.decide()
        if rng.random() < 0.2:
            assert decision.drop
            continue
        if rng.random() < 0.3:
            assert decision.corrupt
            continue
        assert not decision.corrupt
        extra = rng.randint(1, 1000) if rng.random() < 0.4 else 0
        assert decision.extra_delay_ns == extra
        if rng.random() < 0.5:
            assert decision.duplicate
            assert decision.duplicate_delay_ns == rng.randint(1, 1000)


def test_corrupt_bytes_always_differs_and_is_seeded():
    import random as _random

    from repro.net.fault import corrupt_bytes

    data = bytes(range(64))
    a = corrupt_bytes(data, _random.Random(9))
    b = corrupt_bytes(data, _random.Random(9))
    c = corrupt_bytes(data, _random.Random(10))
    assert a == b  # same seed, same damage
    assert a != data
    assert len(a) == len(data)
    assert a != c or True  # different seeds usually differ; never crash
    # 1..3 bit flips, never more.
    flipped = sum(bin(x ^ y).count("1") for x, y in zip(a, data))
    assert 1 <= flipped <= 3


def test_corrupt_bytes_on_empty_datagram_is_a_seeded_noop():
    """Regression: an empty payload has no bits to flip.  It must come
    back unchanged (the old code fabricated a 1-byte ``b"\\xff"`` frame)
    and must not draw from the RNG — otherwise one degenerate datagram
    would shift every later decision of a seeded fault schedule."""
    import random as _random

    from repro.net.fault import corrupt_bytes

    rng = _random.Random(123)
    untouched = _random.Random(123)
    assert corrupt_bytes(b"", rng) == b""
    # The RNG stream is exactly where it started: the next draws agree
    # with a virgin generator of the same seed.
    assert [rng.random() for _ in range(8)] == [
        untouched.random() for _ in range(8)
    ]
    # Non-empty payloads still always come back damaged.
    assert corrupt_bytes(b"\x00", rng) != b"\x00"


def test_corrupt_packet_fields_changes_exactly_one_field():
    import random as _random

    from repro.core.packet import AskPacket
    from repro.net.fault import corrupt_packet_fields

    packet = AskPacket(
        0x1, 7, "h0", "h2", 1, 42, bitmap=0b101,
        keys=(b"a" * 8, None, b"b" * 8), values=(5, None, 9),
    )
    for seed in range(50):
        mutated = corrupt_packet_fields(packet, _random.Random(seed))
        assert mutated is not packet
        assert type(mutated) is AskPacket
        # Addressing is carried by the fabric, not the payload: src/dst
        # never mutate (a damaged frame still arrives *somewhere* real).
        assert (mutated.src, mutated.dst) == ("h0", "h2")
        diffs = [
            name
            for name in ("flags", "task_id", "channel_index", "seq", "bitmap", "keys", "values")
            if getattr(mutated, name) != getattr(packet, name)
        ]
        assert len(diffs) == 1, diffs
