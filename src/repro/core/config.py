"""`AskConfig` — the single tuning surface of the ASK service.

Every knob the paper mentions is a field here with the paper's value as the
default; experiments vary one or two fields at a time.  The config is frozen
so it can be shared between the daemon, switch and cost model without
defensive copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import constants
from repro.core.errors import ConfigError


@dataclass(frozen=True)
class AskConfig:
    """Configuration for an ASK deployment.

    Switch geometry
    ---------------
    num_aas:
        Number of aggregator arrays N, which equals the number of tuple
        slots in a packet (§3.2.1; 32 per pipeline in the prototype).
    aggregators_per_aa:
        Aggregators per AA, counting both shadow copies (32768 in the
        prototype).  With ``shadow_copy`` enabled each copy holds half.
    key_bits / value_bits:
        kPart/vPart width n of one aggregator (§3.2.1; 32/32 by default).
        All value arithmetic is modulo ``2**value_bits`` — identically at
        the switch, the host receiver and the reference aggregator.
    medium_key_groups / medium_group_width:
        k groups of m physically adjacent AAs dedicated to medium
        (coalesced) keys (§3.2.3; k=8, m=2 in the prototype).

    Reliability
    -----------
    window_size:
        Sender sliding window W (§3.3; 256).
    retransmit_timeout_us:
        Fine-grained retransmission timeout (§3.3; 100 us).
    use_compact_seen:
        Use the W-bit compact ``seen`` design (Eq. 8) instead of the 2W-bit
        reference design (Eqs. 5–7).  Both are implemented; this flag drives
        the ablation.

    Hot-key prioritization
    ----------------------
    shadow_copy:
        Enable the shadow-copy mechanism (§3.4, Algorithm 1).
    swap_threshold_packets:
        Packets received at the host receiver between swap notifications.

    Host / network
    --------------
    data_channels_per_host:
        Data channels per daemon (4 in the evaluation, footnote 6).
    link_bandwidth_gbps / link_latency_ns / host_max_pps:
        Defaults for the simulated fabric.  The switch pipeline and
        control-plane latencies are fixed module constants
        (``constants.SWITCH_PIPELINE_LATENCY_NS``,
        ``constants.CONTROL_LATENCY_NS``).
    """

    # Switch geometry
    num_aas: int = constants.DEFAULT_NUM_AAS
    aggregators_per_aa: int = constants.DEFAULT_AGGREGATORS_PER_AA
    key_bits: int = 32
    value_bits: int = 32
    medium_key_groups: int = constants.DEFAULT_MEDIUM_GROUPS
    medium_group_width: int = constants.DEFAULT_MEDIUM_GROUP_WIDTH

    # Reliability
    window_size: int = constants.DEFAULT_WINDOW
    retransmit_timeout_us: float = constants.DEFAULT_RTO_US
    use_compact_seen: bool = True

    # Failure domain (crash/partition tolerance).  All defaults preserve
    # the fault-free fast path bit-for-bit: detection off, no give-up
    # deadline.  The lease is ``failover.LEASE_MULTIPLE`` heartbeats.
    failure_detection: bool = False
    heartbeat_interval_us: float = 50.0
    give_up_timeout_us: Optional[float] = None

    # Gray-failure domain (slow-is-the-new-dead).  Both default off so the
    # fault-free fast path and every existing byte-identity oracle are
    # untouched.  ``adaptive_rto`` replaces the fixed §3.3 timeout with a
    # Jacobson/Karels estimator (srtt/rttvar EWMA, Karn's rule, estimator-
    # owned exponential backoff) bounded by [rto_min_us, rto_max_us].
    # ``gray_detection`` teaches the failure supervisor a per-switch
    # suspicion score fed by observed timeout bursts, so a slow-but-alive
    # path is routed around via subtree bypass *before* its lease would
    # ever lapse (it never does — the node still heartbeats); its decay and
    # threshold are ``failover.GRAY_SUSPICION_DECAY``/``_THRESHOLD``.
    adaptive_rto: bool = False
    rto_min_us: float = 50.0
    rto_max_us: float = 10_000.0
    gray_detection: bool = False

    # Data integrity.  When enabled (the default), frames failing their
    # integrity check (CRC32 trailer on the wire codec; the
    # checksum-failed marker in the discrete-event fabric) are dropped and
    # counted at ingress, so corruption degrades to loss and §3.3
    # retransmission recovers it.  Disabling this models the seed stack,
    # where a flipped bit silently poisons the aggregate.
    integrity_checks: bool = True

    # Multi-tenant service plane (§7).  Off by default: allocation failure
    # stays a loud error and nothing is added to the schedule, preserving
    # the fault-free fast path bit-for-bit.  When on, allocation failure
    # queues the task in the AdmissionController instead: per-tenant FIFO
    # (bounded by admission_queue_limit), weighted deficit-round-robin
    # grants on region release, deterministic exponential retry backoff,
    # and — at the deadline — graceful degradation to the host-side
    # bypass path (or a loud reject when admission_degrade is off).
    admission_control: bool = False
    admission_queue_limit: int = 64
    admission_retry_us: float = 100.0
    admission_backoff: float = 2.0
    admission_backoff_cap_us: float = 1_600.0
    admission_deadline_us: Optional[float] = 5_000.0
    admission_degrade: bool = True

    # Hot-key prioritization
    shadow_copy: bool = True
    swap_threshold_packets: int = 1024

    # Congestion control (§7): ECN marking + AIMD, capped at window_size
    congestion_control: bool = False
    ecn_threshold_bytes: int = 30_000
    cwnd_initial: float = 8.0

    # Host / daemon
    data_channels_per_host: int = 4

    # Network defaults
    link_bandwidth_gbps: Optional[float] = 100.0
    link_latency_ns: int = 1_000
    host_max_pps: Optional[float] = None

    # Diagnostics
    trace: bool = False

    def __post_init__(self) -> None:
        if self.num_aas < 1:
            raise ConfigError("num_aas must be >= 1")
        if self.aggregators_per_aa < 2:
            raise ConfigError("aggregators_per_aa must be >= 2")
        if self.shadow_copy and self.aggregators_per_aa % 2:
            raise ConfigError(
                "aggregators_per_aa must be even when shadow_copy is enabled "
                "(each AA is split into two copies, Algorithm 1)"
            )
        if self.key_bits % 8 or self.key_bits <= 0:
            raise ConfigError("key_bits must be a positive multiple of 8")
        if self.value_bits <= 0:
            raise ConfigError("value_bits must be positive")
        if self.medium_key_groups < 0 or self.medium_group_width < 1:
            raise ConfigError("invalid medium-key geometry")
        if self.medium_slots > self.num_aas:
            raise ConfigError(
                f"medium-key groups need {self.medium_slots} AAs but only "
                f"{self.num_aas} exist"
            )
        if self.medium_key_groups and self.num_short_slots < 1:
            raise ConfigError(
                "at least one AA must remain for short keys when medium-key "
                "groups are configured"
            )
        if self.window_size < 1:
            raise ConfigError("window_size must be >= 1")
        if self.retransmit_timeout_us <= 0:
            raise ConfigError("retransmit_timeout_us must be positive")
        if self.data_channels_per_host < 1:
            raise ConfigError("data_channels_per_host must be >= 1")
        if self.heartbeat_interval_us <= 0:
            raise ConfigError("heartbeat_interval_us must be positive")
        if self.give_up_timeout_us is not None and (
            self.give_up_timeout_us < self.retransmit_timeout_us
        ):
            raise ConfigError(
                "give_up_timeout_us must be >= retransmit_timeout_us"
            )
        if self.rto_min_us <= 0:
            raise ConfigError("rto_min_us must be positive")
        if self.rto_max_us < self.rto_min_us:
            raise ConfigError("rto_max_us must be >= rto_min_us")
        if self.gray_detection and not self.failure_detection:
            raise ConfigError(
                "gray_detection needs the failure supervisor; set "
                "failure_detection=True"
            )
        if self.swap_threshold_packets < 1:
            raise ConfigError("swap_threshold_packets must be >= 1")
        if self.admission_queue_limit < 1:
            raise ConfigError("admission_queue_limit must be >= 1")
        if self.admission_retry_us <= 0:
            raise ConfigError("admission_retry_us must be positive")
        if self.admission_backoff < 1.0:
            raise ConfigError("admission_backoff must be >= 1.0")
        if self.admission_backoff_cap_us < self.admission_retry_us:
            raise ConfigError(
                "admission_backoff_cap_us must be >= admission_retry_us"
            )
        if self.admission_deadline_us is not None and (
            self.admission_deadline_us < self.admission_retry_us
        ):
            raise ConfigError(
                "admission_deadline_us must be >= admission_retry_us "
                "(a waiter must get at least one timed retry)"
            )
        if self.congestion_control:
            if self.ecn_threshold_bytes < 1:
                raise ConfigError("ecn_threshold_bytes must be >= 1")
            if not 1 <= self.cwnd_initial <= self.window_size:
                raise ConfigError(
                    "cwnd_initial must lie within [1, window_size]: the "
                    "congestion window may never exceed the reliability "
                    "window (§7)"
                )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def key_bytes(self) -> int:
        """Bytes of one kPart (short-key capacity), n/8."""
        return self.key_bits // 8

    @property
    def medium_slots(self) -> int:
        """Packet slots (== AAs) dedicated to medium-key groups, k*m."""
        return self.medium_key_groups * self.medium_group_width

    @property
    def num_short_slots(self) -> int:
        """Packet slots (== AAs) serving short keys."""
        return self.num_aas - self.medium_slots

    @property
    def medium_key_bytes(self) -> int:
        """Longest key storable by a medium group, n*m/8."""
        return self.key_bytes * self.medium_group_width

    @property
    def copy_size(self) -> int:
        """Aggregators per shadow copy within one AA."""
        return self.aggregators_per_aa // 2 if self.shadow_copy else self.aggregators_per_aa

    @property
    def value_mask(self) -> int:
        """All value arithmetic is taken modulo ``2**value_bits``."""
        return (1 << self.value_bits) - 1

    @property
    def retransmit_timeout_ns(self) -> int:
        return int(round(self.retransmit_timeout_us * 1_000))

    @property
    def heartbeat_interval_ns(self) -> int:
        return int(round(self.heartbeat_interval_us * 1_000))

    @property
    def rto_min_ns(self) -> int:
        return int(round(self.rto_min_us * 1_000))

    @property
    def rto_max_ns(self) -> int:
        return int(round(self.rto_max_us * 1_000))

    @property
    def give_up_timeout_ns(self) -> Optional[int]:
        if self.give_up_timeout_us is None:
            return None
        return int(round(self.give_up_timeout_us * 1_000))

    @property
    def admission_retry_ns(self) -> int:
        return int(round(self.admission_retry_us * 1_000))

    @property
    def admission_backoff_cap_ns(self) -> int:
        return int(round(self.admission_backoff_cap_us * 1_000))

    @property
    def admission_deadline_ns(self) -> Optional[int]:
        """Queue residence after which a waiter degrades to bypass (or is
        rejected); ``None`` waits until memory frees up, however long."""
        if self.admission_deadline_us is None:
            return None
        return int(round(self.admission_deadline_us * 1_000))

    @property
    def payload_bytes(self) -> int:
        """Fixed payload size: every slot is carried even when blank."""
        return self.num_aas * constants.TUPLE_BYTES

    @classmethod
    def small(cls, **overrides: object) -> "AskConfig":
        """A scaled-down config for fast functional tests.

        8 AAs (2 medium groups of 2, 4 short slots), 64 aggregators per AA,
        window 16.  Semantically identical to the full geometry, ~3 orders
        of magnitude cheaper to simulate.

        ``vectorized=False`` is accepted and ignored: ``bench/workloads.py``
        still passes it, from when a second switch data plane existed.
        ``vectorized=True`` raises.  The cap of the removed fixed-RTO
        backoff is dropped the same way: ``udp_rack`` still passes it.
        """
        if overrides.pop("vectorized", False):
            raise ConfigError(
                "vectorized=True: the numpy switch data plane was removed; "
                "the scalar AskSwitch is the only data plane"
            )
        overrides.pop("retransmit_backoff_cap_us", None)
        params: dict = dict(
            num_aas=8,
            aggregators_per_aa=64,
            medium_key_groups=2,
            medium_group_width=2,
            window_size=16,
            swap_threshold_packets=64,
            data_channels_per_host=1,
        )
        params.update(overrides)
        return cls(**params)
