"""The runtime protocols are satisfied by both backends, structurally."""

from repro.core.config import AskConfig
from repro.net.simulator import Simulator
from repro.runtime import (
    AsyncioFabric,
    Clock,
    Fabric,
    SimFabric,
    SwitchFabricView,
    TaskRunner,
    TimerHandle,
)


def test_simulator_is_a_clock():
    sim = Simulator()
    assert isinstance(sim, Clock)
    handle = sim.schedule(10, lambda: None)
    assert isinstance(handle, TimerHandle)
    handle.cancel()
    handle.cancel()  # idempotent


class _Switch:
    def __init__(self, name):
        self.name = name

    def receive(self, packet):
        pass


def test_sim_fabric_satisfies_fabric_and_switch_view():
    """The fabric is a Fabric; what each switch is handed is its view."""
    fabric = SimFabric()
    assert isinstance(fabric, Fabric)
    assert isinstance(fabric.install_spine(_Switch("spine")), SwitchFabricView)
    assert isinstance(fabric.install_switch(_Switch("tor"), "r0", spine="spine"), SwitchFabricView)
    assert isinstance(fabric.runner(), TaskRunner)
    assert isinstance(fabric.clock, Clock)


def test_asyncio_fabric_satisfies_fabric_and_switch_view():
    fabric = AsyncioFabric()
    try:
        assert isinstance(fabric, Fabric)
        assert isinstance(fabric.install_spine(_Switch("spine")), SwitchFabricView)
        assert isinstance(
            fabric.install_switch(_Switch("tor"), "r0", spine="spine"), SwitchFabricView
        )
        assert isinstance(fabric.runner(), TaskRunner)
        assert isinstance(fabric.clock, Clock)
    finally:
        fabric.close()


def test_asyncio_clock_monotonic_integer_ns():
    fabric = AsyncioFabric()
    try:
        clock = fabric.clock
        a = clock.now
        b = clock.now
        assert isinstance(a, int) and isinstance(b, int)
        assert 0 <= a <= b
    finally:
        fabric.close()


def test_asyncio_clock_timers_fire_in_order():
    fabric = AsyncioFabric()
    try:
        fired = []
        clock = fabric.clock
        clock.schedule(2_000_000, fired.append, "late")
        clock.schedule(500_000, fired.append, "early")
        cancelled = clock.schedule(1_000_000, fired.append, "never")
        cancelled.cancel()
        fabric.runner().run(until=clock.now + 10_000_000)
        assert fired == ["early", "late"]
    finally:
        fabric.close()


def test_asyncio_clock_rejects_negative_delay():
    fabric = AsyncioFabric()
    try:
        assert isinstance(fabric.clock, Simulator)
    finally:
        fabric.close()


def test_host_daemon_and_switch_accept_any_clock():
    """The stack types against Clock, not Simulator — a plain object with
    the right surface wires up fine (structural typing, no isinstance)."""

    class ManualClock:
        def __init__(self):
            self._now = 0
            self.scheduled = []

        @property
        def now(self):
            return self._now

        def schedule(self, delay_ns, callback, *args):
            self.scheduled.append((self._now + delay_ns, callback, args))
            return self

        def at(self, time_ns, callback, *args):
            self.scheduled.append((time_ns, callback, args))
            return self

        def call_later(self, delay_ns, callback, *args):
            self.scheduled.append((self._now + delay_ns, callback, args))

        def call_at(self, time_ns, callback, *args):
            self.scheduled.append((time_ns, callback, args))

        def cancel(self):
            pass

    from repro.core.controlplane import ControlPlane
    from repro.core.daemon import HostDaemon
    from repro.switch.switch import AskSwitch

    clock = ManualClock()
    assert isinstance(clock, Clock)
    config = AskConfig.small()
    switch = AskSwitch(config, clock, max_tasks=2, max_channels=4)
    daemon = HostDaemon(
        "h0", clock, config, ControlPlane(), send_fn=lambda pkt: None,
        on_task_complete=lambda task: None,
    )
    assert switch.clock is clock
    assert daemon.clock is clock
