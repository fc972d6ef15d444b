"""The compiled fast path keeps the PISA discipline (§2.2.1, §3.2.1).

The optimized pipeline reuses one epoch-counter :class:`PassContext` for
every packet and runs install-time-compiled :class:`ChannelProgram`s, so
these tests pin the properties the fast path must not lose: the
one-access-per-pass rule, the stage-order rule, decision-identity with the
seed's generic dedup stage (``tests/oracles/dedup.py``), and the relaxed
2W-bit ``seen`` ablation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.switch.dedup import (
    CHECK_FRESH,
    CHECK_OBSERVED,
    CHECK_STALE,
    DedupUnit,
)
from repro.switch.pisa import Pipeline
from repro.switch.registers import PassContext, RegisterAccessError, RegisterArray
from tests.oracles.dedup import generic_check


def _unit(window=8, compact=True, channels=4, num_aas=8):
    cfg = AskConfig.small(window_size=window, use_compact_seen=compact, num_aas=num_aas)
    return DedupUnit(cfg, max_channels=channels)


# ----------------------------------------------------------------------
# Epoch-counter PassContext
# ----------------------------------------------------------------------
def test_second_same_pass_access_raises_on_reused_context():
    array = RegisterArray("a", size=4, width_bits=32)
    ctx = PassContext()
    array.read(ctx, 0)
    with pytest.raises(RegisterAccessError):
        array.read(ctx, 0)
    with pytest.raises(RegisterAccessError):
        array.write(ctx, 1, 9)  # any op on any index, same pass


def test_reset_reopens_every_array_in_o1():
    arrays = [RegisterArray(f"a{i}", size=2, width_bits=8) for i in range(3)]
    ctx = PassContext()
    for array in arrays:
        array.write(ctx, 0, 1)
    ctx.reset()
    # No per-array clearing happened, yet every stamp is invalid now.
    for array in arrays:
        assert array.read(ctx.reset(), 0) == 1


def test_reused_context_polices_every_specialized_op():
    ctx = PassContext()
    for op in ("read", "write", "set_bit", "clr_bitc", "rmw_max"):
        array = RegisterArray("bits", size=4, width_bits=32)
        ctx.reset()
        args = {
            "read": (0,),
            "write": (0, 1),
            "set_bit": (0,),
            "clr_bitc": (0,),
            "rmw_max": (0, 5),
        }[op]
        getattr(array, op)(ctx, *args)
        with pytest.raises(RegisterAccessError):
            getattr(array, op)(ctx, *args)


def test_fresh_one_shot_contexts_still_work():
    # The identity half of the (context, pass id) stamp can never match a
    # context the array has not seen, whatever its pass id happens to be.
    array = RegisterArray("a", size=1, width_bits=8)
    for _ in range(3):
        array.read(PassContext(), 0)


def test_stage_order_violation_detected_with_reused_context():
    pipeline = Pipeline(max_stages=4)
    early = RegisterArray("early", size=1, width_bits=8)
    late = RegisterArray("late", size=1, width_bits=8)
    pipeline.stage(0).add_array(early)
    pipeline.stage(2).add_array(late)
    ctx = PassContext()
    late.read(ctx, 0)
    with pytest.raises(RegisterAccessError):
        early.read(ctx, 0)  # a packet cannot flow backwards
    # The next pass through the same context starts at the front again.
    ctx.reset()
    early.read(ctx, 0)
    late.read(ctx, 0)


# ----------------------------------------------------------------------
# Compiled channel programs
# ----------------------------------------------------------------------
def test_compiled_check_consumes_the_single_seen_access():
    unit = _unit(compact=True)
    program = unit.compile_channel(0)
    ctx = PassContext()
    assert program.check(ctx, 0) == CHECK_FRESH
    with pytest.raises(RegisterAccessError):
        unit.seen.read(ctx, 0)


def test_compiled_program_codes_match_generic_verdicts():
    unit = _unit(window=8, channels=1)
    oracle = _unit(window=8, channels=1)
    program = unit.compile_channel(0)
    ctx = PassContext()
    arrivals = [0, 1, 2, 0, 3, 20, 13, 12, 20]
    codes = set()
    for seq in arrivals:
        code = program.check(ctx.reset(), seq)
        assert code == generic_check(oracle, PassContext(), 0, seq)
        codes.add(code)
    assert codes == {CHECK_FRESH, CHECK_OBSERVED, CHECK_STALE}
    assert unit.duplicates_detected == oracle.duplicates_detected
    assert unit.stale_drops == oracle.stale_drops


def test_compiled_bitmap_roundtrip_isolated_per_channel():
    unit = _unit(window=8, channels=2)
    p0, p1 = unit.compile_channel(0), unit.compile_channel(1)
    ctx = PassContext()
    p0.record_bitmap(ctx.reset(), 3, 0b11)
    p1.record_bitmap(ctx.reset(), 3, 0b01)
    assert p0.load_bitmap(ctx.reset(), 3) == 0b11
    assert p1.load_bitmap(ctx.reset(), 3) == 0b01


def test_compile_channel_slot_bounds_checked():
    unit = _unit(channels=2)
    with pytest.raises(IndexError):
        unit.compile_channel(2)
    with pytest.raises(IndexError):
        unit.compile_channel(-1)


def test_relaxed_2w_ablation_through_compiled_program():
    """The conceptual 2W-bit ``seen`` (Eqs. 5–7) needs three register
    accesses per pass, which only a relaxed array allows — and the compiled
    program preserves exactly that behaviour."""
    unit = _unit(window=4, compact=False, channels=1)
    assert unit.seen.relax_access_limit
    program = unit.compile_channel(0)
    ctx = PassContext()
    for seq in range(16):  # wraps the 2W ring twice, never falsely observed
        assert program.check(ctx.reset(), seq) == CHECK_FRESH
    assert program.check(ctx.reset(), 15) == CHECK_OBSERVED
    assert unit.duplicates_detected == 1


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    window=st.sampled_from([2, 4, 8]),
    compact=st.booleans(),
)
def test_compiled_program_equals_generic_check_for_reachable_arrivals(
    data, window, compact
):
    """Decision-identity between the compiled program (reused epoch context)
    and the seed's generic dedup stage (fresh context per packet), over the
    arrival space the integrated system can generate."""
    unit = _unit(window=window, compact=compact, channels=1)
    oracle = _unit(window=window, compact=compact, channels=1)
    program = unit.compile_channel(0)
    ctx = PassContext()
    next_new = 0
    for _ in range(60):
        seq = data.draw(st.integers(min_value=0, max_value=next_new + window - 1))
        if seq == next_new:
            next_new += 1
        assert program.check(ctx.reset(), seq) == generic_check(oracle, PassContext(), 0, seq)
    assert unit.duplicates_detected == oracle.duplicates_detected
    assert unit.stale_drops == oracle.stale_drops
