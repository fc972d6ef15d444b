"""PISA programmable-switch model and the ASK switch program.

This package stands in for the paper's Tofino + P4 prototype.  It models the
hardware properties that shaped ASK's design:

- register arrays may be accessed (one read-modify-write) **once** per packet
  pass (:mod:`repro.switch.registers`),
- a stage holds at most four register arrays and a bounded SRAM budget, and a
  packet traverses stages strictly in order (:mod:`repro.switch.pisa`),
- atomic ``set_bit`` / ``clr_bitc`` test-and-set instructions used by the
  compact ``seen`` design (§3.3).

On top of the substrate live the ASK data-plane structures: two-dimensional
aggregator arrays (:mod:`repro.switch.aggregator`), the reliability state
(:mod:`repro.switch.dedup`), the shadow-copy directory
(:mod:`repro.switch.shadow`), the per-packet program
(:mod:`repro.switch.program`), the control plane
(:mod:`repro.switch.controller`) and the network-facing facade
(:mod:`repro.switch.switch`).
"""

from repro.switch.aggregator import AggregatorArray, AggregatorPool
from repro.switch.controller import Region, SwitchController
from repro.switch.dedup import ChannelProgram, DedupUnit
from repro.switch.pisa import Pipeline, PipelineBudgetError, Stage
from repro.switch.program import AskSwitchProgram, SwitchAction, SwitchDecision
from repro.switch.registers import PassContext, RegisterAccessError, RegisterArray
from repro.switch.shadow import ShadowDirectory
from repro.switch.switch import AskSwitch

__all__ = [
    "AggregatorArray",
    "AggregatorPool",
    "AskSwitch",
    "AskSwitchProgram",
    "ChannelProgram",
    "DedupUnit",
    "PassContext",
    "Pipeline",
    "PipelineBudgetError",
    "Region",
    "RegisterAccessError",
    "RegisterArray",
    "ShadowDirectory",
    "Stage",
    "SwitchAction",
    "SwitchController",
    "SwitchDecision",
]
