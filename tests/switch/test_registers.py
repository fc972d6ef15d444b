"""Tests for register arrays and the PISA access restriction."""

import pytest

from repro.core.config import AskConfig
from repro.net.simulator import Simulator
from repro.switch.registers import PassContext, RegisterAccessError, RegisterArray
from repro.switch.switch import AskSwitch


def test_single_access_per_pass_allowed():
    array = RegisterArray("r", 8, 32)
    ctx = PassContext()
    array.write(ctx, 0, 7)
    assert array.control_read(0) == 7


def test_second_access_in_same_pass_raises():
    array = RegisterArray("r", 8, 32)
    ctx = PassContext()
    array.read(ctx, 0)
    with pytest.raises(RegisterAccessError):
        array.read(ctx, 1)


def test_read_then_write_same_pass_raises():
    # One read-modify-write is the budget; a separate read then write is two.
    array = RegisterArray("r", 8, 32)
    ctx = PassContext()
    array.read(ctx, 0)
    with pytest.raises(RegisterAccessError):
        array.write(ctx, 0, 1)


def test_rmw_via_execute_is_one_access():
    array = RegisterArray("r", 8, 32)
    ctx = PassContext()
    result = array.execute(ctx, 3, lambda old: (old + 5, old))
    assert result == 0
    assert array.control_read(3) == 5


def test_fresh_pass_resets_the_budget():
    array = RegisterArray("r", 8, 32)
    array.read(PassContext(), 0)
    array.read(PassContext(), 0)  # new pass, fine


def test_two_arrays_one_pass_each_ok():
    a = RegisterArray("a", 4, 32)
    b = RegisterArray("b", 4, 32)
    ctx = PassContext()
    a.read(ctx, 0)
    b.read(ctx, 0)


def test_relaxed_array_allows_multiple_accesses():
    array = RegisterArray("relaxed", 8, 1, relax_access_limit=True)
    ctx = PassContext()
    array.read(ctx, 0)
    array.write(ctx, 0, 1)
    array.write(ctx, 4, 0)


def test_stage_order_cannot_go_backwards():
    early = RegisterArray("early", 4, 32)
    late = RegisterArray("late", 4, 32)
    early.stage_index = 0
    late.stage_index = 3
    ctx = PassContext()
    late.read(ctx, 0)
    with pytest.raises(RegisterAccessError):
        early.read(ctx, 0)


def test_stage_order_forward_and_same_stage_ok():
    a = RegisterArray("a", 4, 32)
    b = RegisterArray("b", 4, 32)
    c = RegisterArray("c", 4, 32)
    a.stage_index = b.stage_index = 1
    c.stage_index = 2
    ctx = PassContext()
    a.read(ctx, 0)
    b.read(ctx, 0)
    c.read(ctx, 0)


def test_set_bit_returns_previous_value():
    array = RegisterArray("seen", 8, 1)
    assert array.set_bit(PassContext(), 2) == 0
    assert array.set_bit(PassContext(), 2) == 1
    assert array.control_read(2) == 1


def test_clr_bitc_returns_complement_of_previous():
    array = RegisterArray("seen", 8, 1)
    array.control_write(5, 1)
    assert array.clr_bitc(PassContext(), 5) == 0  # was 1 -> complement 0
    assert array.clr_bitc(PassContext(), 5) == 1  # was 0 -> complement 1
    assert array.control_read(5) == 0


def test_index_bounds_checked():
    array = RegisterArray("r", 4, 32)
    with pytest.raises(IndexError):
        array.read(PassContext(), 4)


def test_sram_accounting_rounds_up_to_bytes():
    assert RegisterArray("bits", 10, 1).sram_bytes == 2
    assert RegisterArray("words", 4, 64).sram_bytes == 32


def test_control_plane_bypasses_pass_budget():
    array = RegisterArray("r", 4, 32)
    ctx = PassContext()
    array.read(ctx, 0)
    # Control-plane reads/writes are out-of-band (switch CPU over PCIe).
    array.control_write(1, 9)
    assert array.control_read(1) == 9


def test_control_reset_range():
    array = RegisterArray("r", 6, 32, initial=0)
    for i in range(6):
        array.control_write(i, i + 1)
    array.control_reset(2, 4)
    assert [array.control_read(i) for i in range(6)] == [1, 2, 0, 0, 5, 6]


def test_invalid_construction():
    with pytest.raises(ValueError):
        RegisterArray("bad", 0, 32)
    with pytest.raises(ValueError):
        RegisterArray("bad", 4, 0)


def test_access_counter():
    array = RegisterArray("r", 4, 32)
    array.read(PassContext(), 0)
    array.read(PassContext(), 1)
    assert array.accesses == 2


def test_control_reset_and_range_read_work_in_place():
    # Compiled channel programs bind the array's methods once, so a reset
    # must rewrite the page table those methods read, never rebind it:
    # read through a method bound before any write or reset.
    array = RegisterArray("r", 6, 32, initial=0)
    pages = array._pages
    read = array.control_read_range
    for i in range(6):
        array.control_write(i, i + 1)
    assert read(1, 4) == [2, 3, 4]
    array.control_reset(2, 4)
    assert read(0, 6) == [1, 2, 0, 0, 5, 6]
    assert array._pages is pages
    array.control_reset()
    assert read(0, 6) == [0] * 6
    assert array._pages is pages
    for start, end in ((0, 7), (-1, 3)):  # past either end of the array
        with pytest.raises(IndexError):
            array.control_reset(start, end)
    assert len(array) == 6 and read(0, 6) == [0] * 6


def test_reboot_wipe_reaches_a_compiled_channel_program():
    switch = AskSwitch(AskConfig.small(), Simulator(), max_tasks=4)
    program = switch.dedup.compile_channel(0)  # compiled before the reboot
    aa = switch.pool[0]
    regs = (switch.dedup.max_seq, switch.dedup.seen, switch.dedup.pkt_state, aa.registers)
    begin = switch.pipeline.begin_pass
    assert program.check(begin(), 5) == 0  # fresh
    assert program.check(begin(), 5) == 1  # observed
    program.record_bitmap(begin(), 5, 0b1011)
    assert aa.aggregate_fast(begin(), 3, b"key1", 7) == aa.RESERVED
    assert all(reg.resident_cells for reg in regs)

    switch.crash()
    switch.restore()

    # Every page went back to the shared blank page ...
    assert [reg.resident_cells for reg in regs] == [0, 0, 0, 0]
    assert program.check(begin(), 5) == 0  # ... and the old program sees the wipe
    assert program.load_bitmap(begin(), 5) == 0
    assert aa.aggregate_fast(begin(), 3, b"key2", 1) == aa.RESERVED
