"""Memory guard: a deployment pays for the register state it touches.

Every switch declares the paper's full SRAM (32 AAs x 32 768 aggregators,
plus ``seen``/``PktState`` rows of W cells for every channel), and the
pipeline budgets still count all of it.  The host must not: a 16-rack
spine-leaf fabric at paper geometry declares ~38 M register cells across
its 32 switches, which dense storage held as ~290 MiB of list slots.
Untouched cells read from one shared blank page, so building the fabric
allocates page tables only, and a short task materializes only the pages
it writes.
"""

import tracemalloc

from repro import AskConfig, AskService, reference_aggregate
from repro.switch import registers

_RACKS = 16


def _arrays(service):
    for switch in service.deployment.switches.values():
        for stage in switch.pipeline.stages:
            yield from stage.arrays


def test_paper_geometry_fabric_allocates_page_tables_not_cells():
    pods = {
        f"p{rack}": {f"r{rack}": (f"h{2 * rack}", f"h{2 * rack + 1}")}
        for rack in range(_RACKS)
    }
    tracemalloc.start()
    try:
        service = AskService(AskConfig(), pods=pods)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    storage = snapshot.filter_traces([tracemalloc.Filter(True, registers.__file__)])
    storage_bytes = sum(stat.size for stat in storage.statistics("filename"))
    arrays = list(_arrays(service))
    declared = sum(array.size for array in arrays)
    assert len(service.deployment.switches) == 2 * _RACKS
    assert declared > 36_000_000
    assert storage_bytes < 2 * 1024 * 1024, f"{storage_bytes / 2**20:.2f} MiB of register storage"
    assert sum(array.resident_cells for array in arrays) == 0

    # One short cross-rack task: senders in two racks, receiver in a third.
    streams = {
        host: [(b"k%03d" % ((i * 7 + n) % 200), i % 13 + 1) for i in range(300)]
        for n, host in enumerate(("h0", "h2"))
    }
    result = service.aggregate(streams, receiver="h5")
    assert result.values == reference_aggregate(streams, service.config.value_mask)
    resident = [array.resident_cells for array in arrays]
    assert all(0 <= cells <= array.size for cells, array in zip(resident, arrays))
    assert 0 < sum(resident) < declared // 100
    # The resource report shows both sides: SRAM declared, cells held.
    tor = service.switches["r0"]
    held = sum(array.resident_cells for stage in tor.pipeline.stages for array in stage.arrays)
    assert held > 0
    assert f"register cells: 1,179,968 declared, {held:,} resident" in tor.resource_summary()
