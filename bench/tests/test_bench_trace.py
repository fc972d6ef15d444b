"""Span arithmetic, owner attribution, and install/uninstall hygiene."""

from __future__ import annotations

import importlib

import pytest

from bench import metrics, trace
from bench.harness import run_rep
from bench.workloads import RackLossy


class FakeClock:
    """Advances only when told to, so span durations are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    outer = tracer.name_id("core.sender", "outer")
    inner = tracer.name_id("switch", "inner")

    def child():
        clock.spend(3.0)

    def parent():
        clock.spend(1.0)
        tracer.call(inner, None, child, (), {})
        clock.spend(0.5)
        tracer.call(inner, None, child, (), {})

    tracer.call(outer, None, parent, (), {})
    totals = tracer.layer_totals()
    assert totals["core.sender"] == (1, pytest.approx(1.5))
    assert totals["switch"] == (2, pytest.approx(6.0))
    # Spans are recorded when they end; children point at their parent.
    by_seq = {span[1]: span for span in tracer.spans}
    assert [by_seq[seq][2] for seq in sorted(by_seq)] == [-1, 0, 0]
    assert by_seq[0][5] - by_seq[0][4] == pytest.approx(7.5)


def test_same_layer_nesting_opens_no_second_span():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    send = tracer.name_id("net.link", "send_to_switch")
    link = tracer.name_id("net.link", "Link.send")
    tracer.call(send, None, lambda: tracer.call(link, None, clock.spend, (2.0,), {}), (), {})
    assert len(tracer.spans) == 1
    assert tracer.layer_totals()["net.link"] == (2, pytest.approx(2.0))


def test_task_id_is_taken_from_the_argument_or_inherited():
    tracer = trace.Tracer(clock=FakeClock())
    outer = tracer.name_id("core.daemon", "receive")
    inner = tracer.name_id("core.receiver", "on_packet")
    tracer.call(outer, 41, lambda: tracer.call(inner, None, lambda: None, (), {}), (), {})
    assert {span[3] for span in tracer.spans} == {41}

    class Packet:
        task_id = 7

    class Job:
        task = Packet()

    assert trace._task_of(Packet()) == 7
    assert trace._task_of(Job()) == 7
    assert trace._task_of(12) == 12
    assert trace._task_of("h0") is None


def _owned_by(module: str):
    class Owner:
        def fire(self, amount, clock):
            clock.spend(amount)

    Owner.__module__ = module
    return Owner()


def test_scheduled_callback_is_charged_to_its_owner():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    loop = tracer.name_id("net.simulator", "Simulator.run")
    receiver = trace.OwnedCallback(tracer, _owned_by("repro.core.receiver").fire)
    stranger = trace.OwnedCallback(tracer, _owned_by("some.other.module").fire)

    def run():
        clock.spend(1.0)
        receiver(4.0, clock)
        stranger(2.0, clock)

    tracer.call(loop, None, run, (), {})
    totals = tracer.layer_totals()
    assert totals["net.simulator"] == (1, pytest.approx(1.0))
    assert totals["core.receiver"] == (1, pytest.approx(4.0))
    assert totals[trace.UNATTRIBUTED] == (1, pytest.approx(2.0))


def test_owner_is_found_through_the_programs_own_wrappers():
    from repro.net.simulator import ShardContextCall, Simulator

    tracer = trace.Tracer(clock=FakeClock())
    callback = ShardContextCall(Simulator(), 1, _owned_by("repro.switch.switch").fire)
    name_id = tracer.callback_name_id(callback)
    assert tracer.names[name_id][0] == "switch"


def test_owned_callback_compares_like_the_callback_it_wraps():
    tracer = trace.Tracer(clock=FakeClock())
    owner = _owned_by("repro.switch.vectorized")
    wrapped = trace.OwnedCallback(tracer, owner.fire)
    assert wrapped == owner.fire
    assert wrapped == trace.OwnedCallback(tracer, owner.fire)
    assert not (wrapped != owner.fire)
    assert wrapped != _owned_by("repro.switch.vectorized").fire
    assert hash(wrapped) == hash(owner.fire)


def _patched_attributes():
    for module_name, class_name, attr, _task in trace.ENTRY_POINTS:
        yield module_name, class_name, attr
    for module_name, attr in trace.CODEC_BINDINGS:
        yield module_name, None, attr
    for module_name, class_name, attrs in trace.CLOCK_SEAM:
        for attr in attrs:
            yield module_name, class_name, attr


def _snapshot():
    found = {}
    for module_name, class_name, attr in _patched_attributes():
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        found[(module_name, class_name, attr)] = vars(owner)[attr]
    return found


def test_every_listed_entry_point_exists():
    assert len(_snapshot()) == len(list(_patched_attributes()))


def test_install_wraps_and_uninstall_restores_everything():
    before = _snapshot()
    with trace.install(trace.Tracer()):
        during = _snapshot()
        assert all(during[key] is not before[key] for key in before)
        assert all(getattr(value, "_bench_traced", False) for value in during.values())
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)


def test_layer_filter_leaves_other_layers_and_the_clock_alone():
    before = _snapshot()
    with trace.install(trace.Tracer(), layers=["net.sharded"]):
        during = _snapshot()
    changed = {key for key in before if during[key] is not before[key]}
    assert changed
    assert all(trace.MODULE_LAYERS[module] == "net.sharded" for module, _cls, _attr in changed)


class SmallLossy(RackLossy):
    """The rack_lossy scenario at a size a test can afford."""

    tuples_per_sender = 400


@pytest.mark.parametrize("vectorized", [False, True])
def test_tracing_does_not_perturb_the_simulated_schedule(vectorized):
    workload = SmallLossy()
    untraced = run_rep(workload, 3, vectorized=vectorized)
    tracer = trace.Tracer()
    with trace.install(tracer):
        traced = run_rep(workload, 3, vectorized=vectorized)
    assert untraced.failed == traced.failed == 0
    assert traced.fingerprint == untraced.fingerprint
    assert traced.counters == untraced.counters
    # ... and nearly all of the traced wall time lands in a named layer.
    assert metrics.unattributed_share(tracer, [traced]) < 0.05
    totals = tracer.layer_totals()
    assert totals["net.simulator"][0] == 1  # one Simulator.run
    for layer in ("core.packer", "core.sender", "core.receiver", "switch", "net.link"):
        assert totals[layer][1] > 0.0
