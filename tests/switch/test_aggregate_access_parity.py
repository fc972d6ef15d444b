"""Access-discipline parity for the two inlined copies of the register
access prologue.

``AggregatorArray.aggregate_fast`` inlines the prologue (duplicate-access
stamp, stage ordering, bounds check) that the seed's ``try_aggregate``
(frozen in ``tests/oracles/aggregate.py``) gets from
``RegisterArray.execute``, and the switch program's short-slot loop
(``AskSwitchProgram._aggregate``) inlines it once more for a whole packet.
Inlined copies drift; these properties pin them together: for any
sequence of aggregation attempts — including double accesses in one pass,
backwards stage moves, out-of-range indices and live bits on blank slots —
both sides must raise the *same* exception (type and message) at the same
step, return the same outcome, and leave identical cells, access counts
and counters behind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.errors import ProtocolError
from repro.core.packet import PacketFlag
from repro.net.simulator import Simulator
from repro.switch.aggregator import AggregatorArray
from repro.switch.controller import Region
from repro.switch.pisa import Pipeline
from repro.switch.registers import PassContext, RegisterAccessError
from repro.switch.switch import AskSwitch
from tests.conftest import build_packet, fuzz_budget
from tests.oracles.aggregate import per_tuple_aggregate, try_aggregate

_SIZE = 8
_KEYS = [b"aaaa", b"bbbb", b"cccc", b"odd"]  # incl. one off-width segment


def _build():
    """Two AAs placed in consecutive pipeline stages (so the stage-order
    rule is live) plus a free-floating AA (stage-less arrays skip it)."""
    pipeline = Pipeline(max_stages=4)
    first = AggregatorArray("A", _SIZE, key_bits=32, value_bits=32)
    second = AggregatorArray("B", _SIZE, key_bits=32, value_bits=32)
    free = AggregatorArray("F", _SIZE, key_bits=32, value_bits=32)
    pipeline.stage(0).add_array(first.registers)
    pipeline.stage(1).add_array(second.registers)
    return [first, second, free]


def _code(outcome):
    if outcome.reserved:
        return AggregatorArray.RESERVED
    if outcome.success:
        return AggregatorArray.MATCHED
    return AggregatorArray.FAIL


_op = st.one_of(
    st.just(("pass",)),
    st.tuples(
        st.just("agg"),
        st.integers(0, 2),  # which array
        st.integers(-1, _SIZE + 1),  # index, deliberately past both ends
        st.integers(0, len(_KEYS) - 1),
        st.one_of(st.none(), st.integers(0, 2**33)),  # add_value (may wrap)
        st.booleans(),  # enabled (predicated no-op)
    ),
)


@settings(max_examples=fuzz_budget(200), deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=30))
def test_fast_and_execute_paths_agree_on_every_access_sequence(ops):
    fast_arrays = _build()
    oracle_arrays = _build()
    fast_ctx = PassContext()
    oracle_ctx = PassContext()
    for step, op in enumerate(ops):
        if op[0] == "pass":
            fast_ctx.reset()
            oracle_ctx.reset()
            continue
        _, which, index, key_id, add_value, enabled = op
        segment = _KEYS[key_id]
        fast_exc = oracle_exc = None
        fast_code = oracle_code = None
        try:
            fast_code = fast_arrays[which].aggregate_fast(
                fast_ctx, index, segment, add_value, enabled=enabled
            )
        except Exception as exc:  # noqa: BLE001 - parity is the property
            fast_exc = exc
        try:
            oracle_code = _code(
                try_aggregate(
                    oracle_arrays[which], oracle_ctx, index, segment, add_value, enabled=enabled
                )
            )
        except Exception as exc:  # noqa: BLE001
            oracle_exc = exc
        if oracle_exc is not None or fast_exc is not None:
            assert type(fast_exc) is type(oracle_exc), (
                f"step {step}: fast raised {fast_exc!r}, "
                f"execute raised {oracle_exc!r}"
            )
            assert str(fast_exc) == str(oracle_exc), f"step {step}"
        else:
            assert fast_code == oracle_code, f"step {step}"
    # Identical final state: every cell, every access count.
    for fast, oracle in zip(fast_arrays, oracle_arrays):
        assert fast.registers.accesses == oracle.registers.accesses
        for i in range(_SIZE):
            assert fast.control_cell(i) == oracle.control_cell(i), (fast.name, i)


# ---------------------------------------------------------------------------
# The switch program's compiled short-slot loop vs per-tuple aggregate_fast
# ---------------------------------------------------------------------------
_SLOT_KEYS = [b"aaaa", b"bbbb", b"cccc", b"dd\x80\x00", b"odd"]


def _switch(shadow_copy):
    cfg = AskConfig.small(shadow_copy=shadow_copy)
    switch = AskSwitch(cfg, Simulator(), max_tasks=4, max_channels=8)
    return cfg, switch


def _packet(bitmap, slots):
    """A DATA packet from (key, value) slots, ``None`` for a blank one."""
    return build_packet(slots, flags=PacketFlag.DATA, task_id=1, src="h0", dst="h1",
                        channel_index=0, seq=0, bitmap=bitmap)


def _state(switch, ctx):
    """Everything a pass can touch: every AA's cells, access count and
    stamp, the pool counters, and the pass context."""
    pool = switch.pool
    arrays = [aa.registers for aa in pool.arrays]
    return (
        [reg.control_read_range(0, reg.size) for reg in arrays],
        [reg.accesses for reg in arrays],
        [(reg._last_ctx is ctx, reg._last_pass) for reg in arrays],
        (pool.tuples_aggregated, pool.aggregators_reserved, pool.tuples_failed),
        (ctx._pass_id, ctx._current_stage),
    )


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - parity is the property
        return (type(exc), str(exc))


_slot = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(_SLOT_KEYS), st.integers(-(2**33), 2**33)),
)
_loop_op = st.one_of(
    st.tuples(
        st.just("packet"),
        st.integers(0, 255),  # live bits over all eight slots, blanks included
        st.lists(_slot, min_size=8, max_size=8),
        st.booleans(),  # a region overhanging the AA: out-of-range indices
    ),
    st.just(("reset",)),  # the next pass; without it, a second packet reuses the pass
    st.tuples(st.just("stage"), st.integers(-1, 3)),  # a pass already past stage n
)


@settings(max_examples=fuzz_budget(200), deadline=None)
@given(
    shadow_copy=st.booleans(),
    size=st.sampled_from([1, 2, 8]),
    ops=st.lists(_loop_op, min_size=1, max_size=25),
)
def test_compiled_short_loop_matches_per_tuple_aggregate_fast(shadow_copy, size, ops):
    cfg, compiled = _switch(shadow_copy)
    _, oracle = _switch(shadow_copy)
    region = compiled.controller.allocate_region(1, size=size)
    assert oracle.controller.allocate_region(1, size=size) == region
    overhang = Region(task_id=1, task_slot=region.task_slot, offset=cfg.copy_size - 3, size=8)
    ctx, oracle_ctx = PassContext(), PassContext()
    for step, op in enumerate(ops):
        if op[0] == "reset":
            ctx.reset()
            oracle_ctx.reset()
        elif op[0] == "stage":
            ctx._current_stage = oracle_ctx._current_stage = op[1]
        else:
            _, bitmap, slots, overhanging = op
            pkt = _packet(bitmap, slots)
            where = overhang if overhanging else region
            got = _outcome(lambda: compiled.program._aggregate(ctx, pkt, where))
            want = _outcome(lambda: per_tuple_aggregate(oracle.program, oracle_ctx, pkt, where))
            assert got == want, f"step {step}"
        assert _state(compiled, ctx) == _state(oracle, oracle_ctx), f"step {step}"


def _short_slot_keys(cfg, count):
    """``count`` short keys, each in a different short slot, lowest slot first."""
    from repro.core.keyspace import KeySpaceLayout

    layout = KeySpaceLayout(cfg)
    by_slot = {}
    word = 0
    while len(by_slot) < count:
        assignment = layout.assign(b"%03d" % word)
        by_slot.setdefault(assignment.primary_slot, assignment.padded)
        word += 1
    return sorted(by_slot.items())[:count]


def test_blank_slot_raises_after_the_earlier_tuples_are_counted():
    cfg, switch = _switch(False)
    region = switch.controller.allocate_region(1)
    (first, key), (hole, _) = _short_slot_keys(cfg, 2)
    slots = [None] * cfg.num_aas
    slots[first] = (key, 5)
    pkt = _packet((1 << first) | (1 << hole), slots)
    with pytest.raises(ProtocolError, match=f"bitmap bit {hole} set on a blank slot"):
        switch.program._aggregate(PassContext(), pkt, region)
    # The tuple before the hole was aggregated, and counted, before the raise.
    assert switch.pool.tuples_aggregated == 1
    assert switch.pool.aggregators_reserved == 1
    assert switch.pool[first].registers.accesses == 1


def test_same_pass_twice_and_backwards_stage_raise_like_aggregate_fast():
    cfg, compiled = _switch(False)
    _, oracle = _switch(False)
    region = compiled.controller.allocate_region(1)
    oracle.controller.allocate_region(1)
    (slot, key), = _short_slot_keys(cfg, 1)
    slots = [None] * cfg.num_aas
    slots[slot] = (key, 1)
    pkt = _packet(1 << slot, slots)

    ctx, oracle_ctx = PassContext("twice"), PassContext("twice")
    compiled.program._aggregate(ctx, pkt, region)
    per_tuple_aggregate(oracle.program, oracle_ctx, pkt, region)
    with pytest.raises(RegisterAccessError, match="accessed twice in one pass") as got:
        compiled.program._aggregate(ctx, pkt, region)
    with pytest.raises(RegisterAccessError) as want:
        per_tuple_aggregate(oracle.program, oracle_ctx, pkt, region)
    assert str(got.value) == str(want.value)

    # A pass already one stage past the AA's own.
    ctx, oracle_ctx = PassContext(), PassContext()
    ctx._current_stage = compiled.pool[slot].registers.stage_index + 1
    oracle_ctx._current_stage = ctx._current_stage
    with pytest.raises(RegisterAccessError, match="pass moved backwards") as got:
        compiled.program._aggregate(ctx, pkt, region)
    with pytest.raises(RegisterAccessError) as want:
        per_tuple_aggregate(oracle.program, oracle_ctx, pkt, region)
    assert str(got.value) == str(want.value)
    assert _state(compiled, ctx) == _state(oracle, oracle_ctx)
