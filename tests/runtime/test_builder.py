"""DeploymentBuilder: one place for rack wiring, both backends."""

import pytest

from repro.core.config import AskConfig
from repro.core.errors import TopologyError
from repro.core.service import SMALL_TREE, AskService
from repro.net.fault import FaultModel
from repro.runtime import DeploymentBuilder, SimFabric


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        DeploymentBuilder(AskConfig.small(), backend="dpdk")


def test_build_without_racks_rejected():
    with pytest.raises(ValueError, match="rack"):
        DeploymentBuilder(AskConfig.small()).build(on_task_complete=lambda t: None)


def test_multirack_asyncio_builds():
    """Multi-rack asyncio deployments are supported: the fabric's topology
    holds the racks, and every link of the registry is a datagram wire."""
    builder = DeploymentBuilder(AskConfig.small(), backend="asyncio")
    builder.add_rack(2).add_rack(2)
    deployment = builder.build(on_task_complete=lambda t: None)
    try:
        assert set(deployment.switches) == {"switch", "tor-r1"}
        assert deployment.fabric.host_names == ["h0", "h1", "h2", "h3"]
        assert deployment.fabric.topology.rack_of_host("h2") == "r1"
    finally:
        deployment.close()


def test_single_rack_wiring():
    builder = DeploymentBuilder(AskConfig.small())
    builder.add_rack(3)
    deployment = builder.build(on_task_complete=lambda t: None)
    assert deployment.backend == "sim"
    assert isinstance(deployment.fabric, SimFabric)
    assert list(deployment.daemons) == ["h0", "h1", "h2"]
    assert deployment.switch.name == "switch"
    assert deployment.racks == {"r0": ["h0", "h1", "h2"]}
    assert deployment.fabric.host_names == ["h0", "h1", "h2"]
    assert deployment.control.switch_names == frozenset({"switch"})


def test_host_numbering_continues_across_racks():
    builder = DeploymentBuilder(AskConfig.small())
    builder.add_rack(2).add_rack(2)
    deployment = builder.build(on_task_complete=lambda t: None)
    assert list(deployment.daemons) == ["h0", "h1", "h2", "h3"]
    assert deployment.racks == {"r0": ["h0", "h1"], "r1": ["h2", "h3"]}
    assert set(deployment.switches) == {"switch", "tor-r1"}


def test_explicit_names_and_switch_property_guard():
    builder = DeploymentBuilder(AskConfig.small())
    builder.add_rack(["a", "b"], switch_name="tor-r0", rack="r0")
    builder.add_rack(["c"], switch_name="tor-r1", rack="r1")
    deployment = builder.build(on_task_complete=lambda t: None)
    assert list(deployment.daemons) == ["a", "b", "c"]
    with pytest.raises(ValueError, match="switches"):
        deployment.switch  # ambiguous on a multi-rack deployment


def test_daemons_see_only_switches_registered_so_far():
    """Per-rack wiring order is part of the §7 contract: a rack's daemons
    classify switch ACKs against the switches registered when the daemon
    was built (its own TOR and earlier racks')."""
    builder = DeploymentBuilder(AskConfig.small())
    builder.add_rack(1, switch_name="tor-r0", rack="r0")
    builder.add_rack(1, switch_name="tor-r1", rack="r1")
    deployment = builder.build(on_task_complete=lambda t: None)
    assert deployment.daemons["h0"].channels[0].switch_names == frozenset({"tor-r0"})
    assert deployment.daemons["h1"].channels[0].switch_names == frozenset(
        {"tor-r0", "tor-r1"}
    )


def test_sim_fabric_rejects_second_switch():
    """A rack has one TOR: installing a second switch into it is refused."""
    fabric = SimFabric()

    class Sw:
        def __init__(self, name):
            self.name = name

        def receive(self, packet):
            pass

    fabric.install_switch(Sw("switch"), "r0")
    with pytest.raises(TopologyError, match="already"):
        fabric.install_switch(Sw("tor-r0"), "r0")


def test_same_seed_same_deployment_schedule():
    """The determinism contract across the builder: a fixed fault seed
    produces an identical schedule, stats and retransmission counts."""

    def fingerprint():
        service = AskService(
            AskConfig.small(),
            hosts=3,
            fault=FaultModel(loss_rate=0.1, duplicate_rate=0.05, seed=3),
        )
        streams = {
            "h0": [(b"k%d" % (i % 7), i) for i in range(200)],
            "h1": [(b"k%d" % (i % 5), i) for i in range(200)],
        }
        result = service.aggregate(streams, receiver="h2", check=True)
        return (
            service.sim.events_processed,
            service.sim.now,
            result.stats.retransmissions,
            result.stats.duplicate_packets_dropped,
            sorted(result.values.items()),
        )

    assert fingerprint() == fingerprint()


def _draws(model, n=200):
    return [model.decide() for _ in range(n)]


def _host_links(hosts):
    return [name for host in hosts for name in (f"{host}->switch", f"switch->{host}")]


#: ``SimFabric._links()`` names, in order, per layout: each host's uplink
#: and downlink in attach order, then rack mesh, uplinks, downlinks and
#: spine mesh (recorded before links moved into one registry).
_ONE_RACK = {"r0": ("h0", "h1")}
_LAYOUT_LINKS = [
    ({"hosts": 2}, True, _host_links(["h0", "h1"])),
    ({"racks": _ONE_RACK}, True, _host_links(["h0", "h1"])),
    (
        {"racks": {**_ONE_RACK, "r1": ("h2",), "r2": ("h3",)}},
        False,
        _host_links(["h0", "h1", "h2", "h3"])
        + ["core:r1->r0", "core:r0->r1", "core:r2->r0", "core:r0->r2"]
        + ["core:r2->r1", "core:r1->r2"],
    ),
    (
        {"pods": {"p0": _ONE_RACK}},
        False,
        _host_links(["h0", "h1"]) + ["up:r0->spine-p0", "down:spine-p0->r0"],
    ),
    (
        {"pods": SMALL_TREE},
        False,
        _host_links([f"h{i}" for i in range(8)])
        + ["up:r0->spine-s0", "up:r1->spine-s0", "up:r2->spine-s1", "up:r3->spine-s1"]
        + ["down:spine-s0->r0", "down:spine-s0->r1"]
        + ["down:spine-s1->r2", "down:spine-s1->r3"]
        + ["core:spine-s1->spine-s0", "core:spine-s0->spine-s1"],
    ),
]


def test_fault_stream_naming_rule():
    """A layout of one spineless rack draws its host-link fault streams
    from the template itself; every other layout scopes rack ``r``'s
    under ``rack:r``.  Every recorded one-rack schedule (``bench/``'s
    ``rack_lossy`` fingerprint among them) was drawn with the first
    names, every mesh and tree schedule with the second.  Interconnect
    links (``core:``, ``up:``, ``down:``) draw from the template under
    their own names on every layout."""
    fault = dict(loss_rate=0.2, duplicate_rate=0.1, reorder_rate=0.2, seed=7)
    template = FaultModel(**fault)
    for layout, one_rack, names in _LAYOUT_LINKS:
        service = AskService(AskConfig.small(), fault=FaultModel(**fault), **layout)
        topology = service.topology
        links = list(service.fabric._links())
        assert [link.name for link in links] == names, layout
        for host in topology.host_names:
            rack = topology.rack_of_host(host)
            scoped = template if one_rack else template.derive(f"rack:{rack}")
            for link, name in (
                (topology.uplink(host), f"{host}->switch"),
                (topology.downlink(host), f"switch->{host}"),
            ):
                assert link.name == name
                assert _draws(link.fault) == _draws(scoped.derive(name)), name
        interconnect = links[2 * len(topology.host_names):]
        assert [link for *_, link in topology.interconnect_links()] == interconnect
        for link in interconnect:
            assert _draws(link.fault) == _draws(template.derive(link.name)), link.name
