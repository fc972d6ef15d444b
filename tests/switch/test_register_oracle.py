"""Paged register storage == the dense array it replaced.

:class:`~repro.switch.registers.RegisterArray` keeps its cells in
copy-on-write pages; ``tests/oracles/registers.py`` is the dense list it
replaced.  The property drives both through the same random op sequence —
pass ops (one access per array per pass, stage order, bounds), control
reads, writes and ranges that straddle page edges, whole and partial
resets — on array sizes that are and are not a multiple of the page, and
requires the same result or the same exception (type and message) at
every step and the same cells, access count and pass stamp after it.

The oracle's control accessors are unchecked list operations (its
``control_reset(0, -1)`` even shrinks the list); the product bounds-checks
them.  Where the two differ by design (an index or range outside
``[0, size)``) the product must raise ``IndexError`` and the step is not
run on the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switch.registers import PAGE_CELLS, PassContext, RegisterArray
from tests.conftest import fuzz_budget
from tests.oracles.registers import DenseRegisterArray

_SIZES = [1, 6, PAGE_CELLS - 1, PAGE_CELLS, PAGE_CELLS + 1, 2 * PAGE_CELLS + 44, 3 * PAGE_CELLS]
_INITIALS = [0, -1, None]
#: ``2**40`` is one object per draw site, so a write of an equal value that
#: is not the initial object runs too; ``None`` makes the ALUs raise.
_VALUES = [0, 1, -1, 7, 2**40, None]


def _inc(old):
    return old + 1, old


def _read(old):
    return old, old


def _to_zero(old):
    return 0, old


_ALUS = [_inc, _read, _to_zero]


def _indices(size):
    """Anywhere in or just past the array, biased to page edges."""
    edges = [
        page * PAGE_CELLS + delta
        for page in range(size // PAGE_CELLS + 2)
        for delta in (-1, 0, 1)
    ]
    return st.one_of(st.integers(-2, size + 2), st.sampled_from(edges))


@st.composite
def _scenarios(draw):
    size = draw(st.sampled_from(_SIZES))
    index = _indices(size)
    op = st.one_of(
        st.just(("pass",)),
        st.tuples(st.just("stage"), st.integers(-1, 3)),
        st.tuples(st.sampled_from(["read", "set_bit", "clr_bitc"]), index),
        st.tuples(st.sampled_from(["write", "rmw_max"]), index, st.sampled_from(_VALUES)),
        st.tuples(st.just("execute"), index, st.integers(0, len(_ALUS) - 1)),
        st.tuples(st.just("control_read"), index),
        st.tuples(st.just("control_write"), index, st.sampled_from(_VALUES)),
        st.tuples(st.just("control_read_range"), index, index),
        st.tuples(st.just("control_reset"), index, index),
        st.just(("control_reset",)),
    )
    return (
        size,
        draw(st.sampled_from(_INITIALS)),
        draw(st.sampled_from([None, 0, 2])),  # stage index (None: stage-less)
        draw(st.booleans()),  # relaxed access limit
        draw(st.lists(op, min_size=1, max_size=40)),
    )


def _apply(array, ctx, op):
    name, *args = op
    if name == "execute":
        return array.execute(ctx, args[0], _ALUS[args[1]])
    if name.startswith("control_"):
        return getattr(array, name)(*args)
    return getattr(array, name)(ctx, *args)


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - parity is the property
        return (type(exc), str(exc))


def _rejected_by_bounds(op, size):
    """Control ops the product refuses and the dense oracle would run."""
    name, *args = op
    if name in ("control_read", "control_write"):
        return not 0 <= args[0] < size
    if name in ("control_read_range", "control_reset") and args:
        return not 0 <= args[0] <= args[1] <= size
    return False


@settings(max_examples=fuzz_budget(300), deadline=None)
@given(scenario=_scenarios())
def test_paged_array_matches_the_dense_oracle_on_every_op_sequence(scenario):
    size, initial, stage, relaxed, ops = scenario
    paged = RegisterArray("r", size, 32, initial=initial, relax_access_limit=relaxed)
    dense = DenseRegisterArray("r", size, 32, initial=initial, relax_access_limit=relaxed)
    paged.stage_index = dense.stage_index = stage
    ctx, oracle_ctx = PassContext("p"), PassContext("p")
    for step, op in enumerate(ops):
        if op[0] == "pass":
            ctx.reset("p")
            oracle_ctx.reset("p")
        elif op[0] == "stage":
            ctx._current_stage = oracle_ctx._current_stage = op[1]
        elif _rejected_by_bounds(op, size):
            with pytest.raises(IndexError, match="out of range"):
                _apply(paged, ctx, op)
        else:
            got = _outcome(lambda: _apply(paged, ctx, op))
            want = _outcome(lambda: _apply(dense, oracle_ctx, op))
            assert got == want, f"step {step}: {op}"
        assert paged.control_read_range(0, size) == dense._cells, f"step {step}: {op}"
        assert paged.accesses == dense.accesses
        assert (paged._last_ctx is ctx, paged._last_pass) == (
            dense._last_ctx is oracle_ctx,
            dense._last_pass,
        )
        assert (ctx._pass_id, ctx._current_stage) == (
            oracle_ctx._pass_id,
            oracle_ctx._current_stage,
        )
        assert 0 <= paged.resident_cells <= size


# ---------------------------------------------------------------------------
# Paging itself
# ---------------------------------------------------------------------------
def test_untouched_and_blank_writes_stay_on_the_shared_blank_page():
    array = RegisterArray("r", 3 * PAGE_CELLS + 10, 1, initial=0)
    assert array.resident_cells == 0
    ctx = PassContext()
    array.write(ctx, 5, 0)  # the initial value: nothing to materialize
    assert array.clr_bitc(PassContext(), PAGE_CELLS + 3) == 1
    array.control_write(2 * PAGE_CELLS, 0)
    assert array.resident_cells == 0
    assert array.set_bit(PassContext(), 3 * PAGE_CELLS + 9) == 0  # the short last page
    assert array.resident_cells == 10
    array.control_write(7, 1)
    assert array.resident_cells == PAGE_CELLS + 10
    assert array.control_read_range(0, array.size).count(1) == 2


def test_control_reset_returns_covered_pages_and_keeps_partial_ones():
    array = RegisterArray("r", 2 * PAGE_CELLS + 44, 32, initial=-1)
    for index in (0, PAGE_CELLS - 1, PAGE_CELLS, 2 * PAGE_CELLS + 43):
        array.control_write(index, index)
    assert array.resident_cells == 2 * PAGE_CELLS + 44
    array.control_reset(1, 2 * PAGE_CELLS)  # page 1 whole, page 0 in part
    assert array.resident_cells == PAGE_CELLS + 44
    assert array.control_read_resident(0, array.size) == [
        (0, [0] + [-1] * (PAGE_CELLS - 1)),
        (2 * PAGE_CELLS, [-1] * 43 + [2 * PAGE_CELLS + 43]),
    ]
    array.control_reset(2 * PAGE_CELLS, array.size)  # the short last page, whole
    assert array.resident_cells == PAGE_CELLS
    array.control_reset()
    assert array.resident_cells == 0
    assert array.control_read_range(0, array.size) == [-1] * array.size


def test_control_read_resident_clips_runs_to_the_range():
    array = RegisterArray("r", 3 * PAGE_CELLS, 32, initial=0)
    array.control_write(PAGE_CELLS + 2, 9)
    assert array.control_read_resident(0, PAGE_CELLS) == []
    runs = array.control_read_resident(PAGE_CELLS + 1, PAGE_CELLS + 4)
    assert runs == [(PAGE_CELLS + 1, [0, 9, 0])]
    assert array.control_read_resident(PAGE_CELLS + 2, PAGE_CELLS + 2) == []


# ---------------------------------------------------------------------------
# Control-plane bounds
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "call",
    [
        lambda a: a.control_read(-1),
        lambda a: a.control_read(6),
        lambda a: a.control_write(-1, 9),
        lambda a: a.control_write(6, 9),
        lambda a: a.control_read_range(-2, 10),
        lambda a: a.control_read_range(-1, 3),
        lambda a: a.control_read_range(2, 7),
        lambda a: a.control_read_range(4, 2),
        lambda a: a.control_read_resident(-1, 3),
        lambda a: a.control_read_resident(0, 7),
        lambda a: a.control_reset(0, -1),
        lambda a: a.control_reset(4, 2),
    ],
    ids=[
        "read-1", "read-size", "write-1", "write-size", "range-wrapped",
        "range-negative-start", "range-past-end", "range-reversed",
        "resident-negative-start", "resident-past-end", "reset-negative-stop",
        "reset-reversed",
    ],
)
def test_control_accessors_reject_indices_outside_the_array(call):
    array = RegisterArray("r", 6, 32, initial=0)
    for i in range(6):
        array.control_write(i, i)
    with pytest.raises(IndexError, match=r"r\[.*\] out of range \(size 6\)"):
        call(array)
    assert array.control_read_range(0, 6) == [0, 1, 2, 3, 4, 5]  # nothing written
