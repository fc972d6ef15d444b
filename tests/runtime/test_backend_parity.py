"""One topology, two wires: the sim and UDP backends file the same links.

Both fabrics hand one ``MultiRackTopology`` their wire constructor, so a
rack layout yields the same link names, endpoint tags and per-link fault
streams on either backend; only the object under each name differs.
"""

import pytest

from repro.core.config import AskConfig
from repro.core.service import AskService
from repro.net.fault import FaultModel

FAULT = dict(loss_rate=0.2, duplicate_rate=0.1, reorder_rate=0.2, corrupt_rate=0.05, seed=7)

LAYOUTS = {
    "one-rack": {"hosts": 2},
    "mesh": {"racks": {"r0": ("h0", "h1"), "r1": ("h2", "h3")}},
    "tree": {
        "pods": {
            "p0": {"r0": ("h0",), "r1": ("h1",)},
            "p1": {"r2": ("h2",), "r3": ("h3",)},
        }
    },
}


def _draws(model, n=100):
    return [model.decide() for _ in range(n)]


def _registry(backend, layout):
    """``(name, src, dst, fault draws)`` of every link, in registry order."""
    with AskService(
        AskConfig.small(), fault=FaultModel(**FAULT), backend=backend, **layout
    ) as service:
        return [
            (name, src, dst, _draws(link.fault))
            for name, src, dst, link in service.topology.links()
        ]


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_both_backends_file_the_same_links_and_fault_streams(layout):
    sim = _registry("sim", layout)
    udp = _registry("asyncio", layout)
    assert [row[:3] for row in udp] == [row[:3] for row in sim]
    assert udp == sim


def test_one_rack_udp_fault_streams_keep_their_names():
    """A one-rack UDP link draws from the template under its own name,
    ``fault.derive("h0->switch")``, as one-rack sim links do."""
    template = FaultModel(**FAULT)
    rows = _registry("asyncio", LAYOUTS["one-rack"])
    assert [name for name, *_ in rows] == [
        "h0->switch", "switch->h0", "h1->switch", "switch->h1",
    ]
    for name, _src, _dst, draws in rows:
        assert draws == _draws(template.derive(name)), name
