"""Tests for the shared-memory task handoff."""

import pytest

from repro.core.shared_memory import SharedMemoryAllocator


def test_allocate_and_write():
    alloc = SharedMemoryAllocator("h0")
    region = alloc.allocate(1)
    region.write([(b"a", 1)])
    region.seal()
    assert region.tuples == [(b"a", 1)]
    assert region.sealed


def test_first_write_adopts_the_list_and_later_writes_append():
    # The region is the handed-over buffer: no copy of the stream.
    region = SharedMemoryAllocator("h0").allocate(1)
    data = [(b"a", 1)]
    region.write(data)
    assert region.tuples is data
    region.write([(b"b", 2)])
    assert region.tuples == [(b"a", 1), (b"b", 2)]


def test_write_after_seal_rejected():
    alloc = SharedMemoryAllocator("h0")
    region = alloc.allocate(1)
    region.seal()
    with pytest.raises(RuntimeError):
        region.write([(b"a", 1)])


def test_double_allocation_same_role_rejected():
    alloc = SharedMemoryAllocator("h0")
    alloc.allocate(1, role="send")
    with pytest.raises(RuntimeError):
        alloc.allocate(1, role="send")


def test_send_and_recv_roles_coexist():
    # A host can be both a sender and the receiver of one task (§5.5's
    # co-located mappers), each role with its own region.
    alloc = SharedMemoryAllocator("h0")
    send = alloc.allocate(1, role="send")
    recv = alloc.allocate(1, role="recv")
    assert send is not recv
    assert len(alloc) == 2


def test_release_frees_the_slot():
    alloc = SharedMemoryAllocator("h0")
    alloc.allocate(1)
    alloc.release(1)
    alloc.allocate(1)  # no error


def test_publish_result():
    alloc = SharedMemoryAllocator("h0")
    region = alloc.allocate(1, role="recv")
    region.publish_result({b"a": 3})
    assert alloc.get(1, role="recv").result == {b"a": 3}


def test_bytes_used_accounting():
    alloc = SharedMemoryAllocator("h0")
    region = alloc.allocate(1)
    region.write([(b"abc", 1), (b"de", 2)])
    assert region.bytes_used == (3 + 4) + (2 + 4)
