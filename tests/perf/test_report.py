"""Tests for the run-report generator."""

from repro.core.config import AskConfig
from repro.core.service import SMALL_TREE, AskService
from repro.net.fault import FaultModel
from repro.perf.report import service_report


def test_report_covers_tasks_switch_and_links():
    fault = FaultModel(loss_rate=0.05, duplicate_rate=0.05, seed=3)
    service = AskService(AskConfig.small(), hosts=2, fault=fault)
    service.aggregate({"h0": [(b"a", 1)] * 100}, receiver="h1", check=True)
    report = service_report(service)
    assert "tasks" in report
    assert "complete" in report
    assert "switch switch:" in report
    assert "h0->switch" in report and "switch->h1" in report
    assert "dropped" in report


def test_report_shows_ecn_marks_when_cc_enabled():
    cfg = AskConfig.small(
        congestion_control=True,
        ecn_threshold_bytes=1_000,
        link_bandwidth_gbps=1.0,
        retransmit_timeout_us=1000.0,
        window_size=64,
    )
    service = AskService(cfg, hosts=2)
    service.aggregate(
        {"h0": [(("k%02d" % (i % 30)).encode(), 1) for i in range(1500)]},
        receiver="h1",
        check=True,
    )
    report = service_report(service)
    marked = service.topology.uplink("h0").packets_marked
    assert marked > 0
    assert str(marked) in report


def test_report_works_for_multirack():
    service = AskService(
        AskConfig.small(), racks={"r0": ["a", "b"], "r1": ["c"]}
    )
    service.aggregate({"a": [(b"x", 1)] * 40, "c": [(b"x", 2)] * 40}, receiver="b")
    report = service_report(service)
    assert "switch tor-r0:" in report and "switch tor-r1:" in report


def test_report_lists_every_link_on_a_tree():
    """Host links and the interconnect, on a spine–leaf layout too."""
    service = AskService(AskConfig.small(), pods=SMALL_TREE)
    service.aggregate({"h0": [(b"x", 1)] * 40, "h4": [(b"x", 2)] * 40}, receiver="h7")
    report = service_report(service)
    for host in service.hosts:
        assert f"{host}->switch" in report and f"switch->{host}" in report
    interconnect = [name for name, _, _, _ in service.topology.interconnect_links()]
    assert "up:r0->spine-s0" in interconnect and "core:spine-s0->spine-s1" in interconnect
    for name in interconnect:
        assert name in report


def test_report_on_unfinished_service_is_safe():
    service = AskService(AskConfig.small(), hosts=2)
    service.submit({"h0": [(b"a", 1)]}, receiver="h1")
    report = service_report(service)  # nothing ran yet
    assert "submitted" in report
    assert "-" in report  # no elapsed time yet
