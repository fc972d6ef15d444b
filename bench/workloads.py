"""The benchmark's seven workloads and their input generators.

Every input is drawn here, from ``random.Random(seed)`` — streams, task
placement, and the seed handed to each ``FaultModel`` — so the program
under test receives only generated inputs and the same ``--seed`` always
gives the same ones.  Nothing is taken from ``repro.workloads``.

All workloads are closed loops: each sender is window-limited, so the
offered load is ``senders x window_size`` packets in flight and a slower
system simply receives less load.  Everything runs in one process on one
thread, except ``fabric16_sharded``, which forks one worker per shard.

Sizes are chosen so that one repetition takes roughly 0.8-1.5 s on the
2-core reference box: ten seconds of measuring then gives about ten
repetitions, enough for a median that holds still.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

Stream = List[Tuple[bytes, int]]


def make_keys(count: int, width: int) -> List[bytes]:
    """``count`` distinct keys of exactly ``width`` bytes (``k000``...)."""
    digits = width - 1
    if count > 10**digits:
        raise ValueError(f"{count} keys do not fit in {width} bytes")
    return [b"k" + str(index).zfill(digits).encode() for index in range(count)]


def make_stream(rng: random.Random, keys: List[bytes], length: int) -> Stream:
    """``length`` tuples, keys uniform over ``keys``, values in 1..99."""
    return [(rng.choice(keys), rng.randint(1, 99)) for _ in range(length)]


@dataclass(frozen=True)
class TaskSpec:
    """One aggregation task to submit: sender streams, receiver, and the
    keyword options ``submit`` takes (``region_size``, ``tenant_id``)."""

    streams: Dict[str, Stream]
    receiver: str
    options: Mapping[str, Any] = field(default_factory=dict)


class Workload:
    """Common shape: a name, why it exists, and which fabric it crosses."""

    name = ""
    why = ""
    #: "sim" (discrete-event fabric), "udp" (asyncio over loopback) or
    #: "sharded" (fork-per-shard conservative PDES).
    fabric = "sim"
    #: The scenario can be re-run on the vectorized switch data plane.
    supports_vectorized = False
    #: Wall-clock bound for one repetition's ``run_to_completion`` on a
    #: real-time fabric; simulated fabrics ignore it.
    timeout_s: Optional[float] = None


class ServiceWorkload(Workload):
    """A workload driven through a service's ``submit`` /
    ``run_to_completion``."""

    def generate(self, seed: int) -> List[TaskSpec]:
        raise NotImplementedError

    def build(self, seed: int, vectorized: bool = False) -> Any:
        """A fresh deployment, ready for the first ``submit``."""
        raise NotImplementedError


def _rack_specs(
    seed: int, hosts: int, tuples_per_sender: int, keys: List[bytes]
) -> List[TaskSpec]:
    """One task: every host but the last streams to the last."""
    rng = random.Random(seed)
    streams = {
        f"h{index}": make_stream(rng, keys, tuples_per_sender)
        for index in range(hosts - 1)
    }
    return [TaskSpec(streams, f"h{hosts - 1}")]


class RackHot(ServiceWorkload):
    name = "rack_hot"
    why = (
        "paper geometry, 512 hot keys, 99 % absorbed in-switch: packer and the "
        "switch aggregate-hit path do the work, the receiver only pays teardown"
    )
    supports_vectorized = True
    hosts = 4
    tuples_per_sender = 40_000

    def generate(self, seed: int) -> List[TaskSpec]:
        return _rack_specs(seed, self.hosts, self.tuples_per_sender, make_keys(512, 4))

    def build(self, seed: int, vectorized: bool = False) -> Any:
        from repro import AskConfig, AskService

        config = AskConfig(vectorized=True) if vectorized else AskConfig()
        return AskService(config, hosts=self.hosts)


class RackSpill(ServiceWorkload):
    name = "rack_spill"
    why = (
        "8192 medium keys into 128 cells, 3 % absorbed: small packets, switch "
        "miss/forward + swap every 64 packets, receiver merges on the host"
    )
    hosts = 4
    tuples_per_sender = 10_000

    def generate(self, seed: int) -> List[TaskSpec]:
        return _rack_specs(seed, self.hosts, self.tuples_per_sender, make_keys(8192, 7))

    def build(self, seed: int, vectorized: bool = False) -> Any:
        from repro import AskConfig, AskService

        config = AskConfig.small(window_size=256, retransmit_timeout_us=50.0)
        return AskService(config, hosts=self.hosts)


class RackLossy(ServiceWorkload):
    """The ``benchmarks/bench_hotpath.py`` FULL scenario, verbatim: at seed
    7 its fingerprint equals ``BENCH_hotpath.json``'s."""

    name = "rack_lossy"
    why = (
        "bench_hotpath FULL scenario: 5 % loss, 3 % dup, 10 % reorder - "
        "retransmit timers, switch dedup and receive-window duplicates dominate"
    )
    supports_vectorized = True
    hosts = 4
    tuples_per_sender = 20_000

    def generate(self, seed: int) -> List[TaskSpec]:
        return _rack_specs(seed, self.hosts, self.tuples_per_sender, make_keys(512, 4))

    def build(self, seed: int, vectorized: bool = False) -> Any:
        from repro import AskConfig, AskService, FaultModel

        config = AskConfig.small(
            window_size=256, retransmit_timeout_us=50.0, vectorized=vectorized
        )
        fault = FaultModel(
            loss_rate=0.05,
            duplicate_rate=0.03,
            reorder_rate=0.10,
            max_extra_delay_ns=200_000,
            seed=seed,
        )
        return AskService(config, hosts=self.hosts, fault=fault)


class TreeFanin(ServiceWorkload):
    name = "tree_fanin"
    why = (
        "4 pods x 4 racks x 2 hosts, 4 concurrent cross-pod reductions, "
        "placement both, 2 % loss: event heap, routing and relay/combiner regions"
    )
    pods = 4
    racks_per_pod = 4
    tuples_per_sender = 2_000

    def _hosts_of_pod(self, pod: int) -> List[str]:
        first = pod * self.racks_per_pod * 2
        return [f"h{first + index}" for index in range(self.racks_per_pod * 2)]

    def generate(self, seed: int) -> List[TaskSpec]:
        rng = random.Random(seed)
        keys = make_keys(512, 4)
        specs = []
        for pod in range(self.pods):
            # Every host of the pod sends; the receiver sits in the next
            # pod, so each reduction crosses two spines.
            streams = {
                host: make_stream(rng, keys, self.tuples_per_sender)
                for host in self._hosts_of_pod(pod)
            }
            receiver = self._hosts_of_pod((pod + 1) % self.pods)[0]
            specs.append(TaskSpec(streams, receiver, {"region_size": 256}))
        return specs

    def build(self, seed: int, vectorized: bool = False) -> Any:
        from repro import AskConfig, FaultModel, TreeAskService

        config = AskConfig.small(
            window_size=64, retransmit_timeout_us=400.0, aggregators_per_aa=2048
        )
        pods = {}
        for pod in range(self.pods):
            hosts = self._hosts_of_pod(pod)
            pods[f"p{pod}"] = {
                f"r{pod * self.racks_per_pod + rack}": hosts[2 * rack : 2 * rack + 2]
                for rack in range(self.racks_per_pod)
            }
        return TreeAskService(
            config,
            pods=pods,
            placement="both",
            fault=FaultModel(loss_rate=0.02, seed=seed),
            core_latency_ns=50_000,
        )


class TaskChurn(ServiceWorkload):
    name = "task_churn"
    why = (
        "1500 ten-tuple tasks from 4 tenants queue for 64 regions: service, "
        "control plane, admission and region allocate/teardown dominate"
    )
    hosts = 8
    tasks = 1500
    tenants = 4

    def generate(self, seed: int) -> List[TaskSpec]:
        rng = random.Random(seed)
        keys = make_keys(256, 4)
        names = [f"h{index}" for index in range(self.hosts)]
        specs = []
        for index in range(self.tasks):
            first, second, receiver = rng.sample(names, 3)
            streams = {
                first: make_stream(rng, keys, 10),
                second: make_stream(rng, keys, 10),
            }
            options = {"region_size": 8, "tenant_id": 1 + index % self.tenants}
            specs.append(TaskSpec(streams, receiver, options))
        return specs

    def build(self, seed: int, vectorized: bool = False) -> Any:
        from repro import AskConfig, AskService

        config = AskConfig.small(
            admission_control=True,
            admission_deadline_us=None,
            admission_queue_limit=1024,
        )
        service = AskService(config, hosts=self.hosts, max_tasks=64)
        for tenant in range(1, self.tenants + 1):
            service.register_tenant(tenant, name=f"tenant{tenant}")
        return service


class UdpRack(ServiceWorkload):
    """Loopback UDP, not a real link: the kernel moves every datagram, but
    nothing here says anything about a NIC or a wire.

    Window 16 and a 100 ms timeout keep the run clear of the retransmit
    storm found while sizing (see bench/README.md): no timer fires, so the
    load is the same from run to run.
    """

    name = "udp_rack"
    why = (
        "asyncio backend over loopback UDP: the only workload that crosses the "
        "codec, real sockets and wall-clock timers; simulator and links absent"
    )
    fabric = "udp"
    hosts = 4
    tuples_per_sender = 6_000
    timeout_s = 60.0

    def generate(self, seed: int) -> List[TaskSpec]:
        return _rack_specs(seed, self.hosts, self.tuples_per_sender, make_keys(512, 4))

    def build(self, seed: int, vectorized: bool = False) -> Any:
        from repro import AskConfig, AskService

        config = AskConfig.small(
            window_size=16,
            retransmit_timeout_us=100_000.0,
            retransmit_backoff_cap_us=800_000.0,
        )
        service = AskService(config, hosts=self.hosts, backend="asyncio")
        try:
            # Sockets bind to ephemeral ports, so two checkouts can run
            # side by side; opening them is part of set-up, not of the run.
            service.fabric.start()
        except BaseException:
            service.close()
            raise
        return service


class Fabric16Sharded(Workload):
    """The hot-path benchmark's 16-rack spine-leaf scenario (a copy of
    ``benchmarks/bench_hotpath.py``'s ``_sharded_case``), cut into two
    shards and run with one forked worker per shard."""

    name = "fabric16_sharded"
    why = (
        "16-rack spine-leaf fabric on 2 forked shard workers: windows, barriers "
        "and cross-shard messages on real cores; wall and CPU time diverge"
    )
    fabric = "sharded"
    racks = 16
    groups = 4
    shards = 2
    #: Long enough that one late retransmission does not move the
    #: simulated completion time by a tenth from one seed to the next.
    tuples_per_sender = 4_000

    def generate(self, seed: int) -> Tuple[Any, Any]:
        """``(scenario, plan)``: one task per group of racks fans the
        group's senders into its last rack; spines are spread round-robin
        so every up/core/down link class crosses the cut."""
        from repro import AskConfig
        from repro.runtime.sharded import ShardedScenario, ShardedTask, make_plan

        rng = random.Random(seed)
        keys = make_keys(512, 4)
        pods = {
            f"p{rack}": {f"r{rack}": (f"h{2 * rack}", f"h{2 * rack + 1}")}
            for rack in range(self.racks)
        }
        per_group = self.racks // self.groups
        tasks = []
        for group in range(self.groups):
            group_racks = range(group * per_group, (group + 1) * per_group)
            streams = {
                f"h{2 * rack}": tuple(make_stream(rng, keys, self.tuples_per_sender))
                for rack in group_racks
            }
            receiver = f"h{2 * max(group_racks) + 1}"
            tasks.append(ShardedTask(streams=streams, receiver=receiver, region_size=8))
        scenario = ShardedScenario(
            config=AskConfig.small(window_size=256, retransmit_timeout_us=400.0),
            pods=pods,
            placement="leaf",
            tasks=tuple(tasks),
            fault={
                "loss_rate": 0.02,
                "duplicate_rate": 0.01,
                "reorder_rate": 0.05,
                "max_extra_delay_ns": 50_000,
                "seed": seed,
            },
            core_latency_ns=50_000,
        )
        return scenario, make_plan(scenario, self.shards, spread_spines=True)


WORKLOADS: Tuple[Workload, ...] = (
    RackHot(),
    RackSpill(),
    RackLossy(),
    TreeFanin(),
    TaskChurn(),
    UdpRack(),
    Fabric16Sharded(),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
