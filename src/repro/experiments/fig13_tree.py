"""Fig. 13 (tree): hierarchical aggregation — goodput/JCT vs spine fan-in.

The paper deploys ASK on one TOR (§7 sketches the hierarchical case); this
experiment extends Fig. 13(b)'s scalability question to spine–leaf trees:
at 16/64/256 simulated racks, how much does combining partially-aggregated
residue at the spines buy over the flat policy, where every leaf's residue
converges on the receiver's single 100 G link?

Two legs:

- **Analytic sweep** — the Fig. 13 cost model extended one level up.  A
  leaf absorbs most tuples (``LEAF_RESIDUAL`` of the offered load leaks
  through, the Table 1 residue); flat deployments funnel ``racks ×
  residual`` onto the receiver link, trees funnel ``spines ×
  combined-residual`` where a spine merges the overlapping keys of its
  fan-in leaves (``KEY_OVERLAP``).  Goodput is the offered load scaled by
  the receiver-link bottleneck; JCT is a fixed per-rack volume divided by
  goodput.

- **Functional point** — the smallest tree (2 pods × 2 racks × 2 hosts) is
  actually run on the deterministic sim backend under every placement
  policy; each run must reproduce the exact reference aggregate, and all
  placements must hash to the same ``values_sha256`` — the equivalence
  contract of the hierarchical refactor, observable from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.perf.goodput import ask_wire_gbps
from repro.perf.metrics import format_table

#: Simulated rack counts (Fig. 13(b) asks "what if n keeps growing?").
RACK_POINTS = (16, 64, 256)
#: Leaves per spine.  Fan-in 1 is the degenerate flat tree.
FANIN_POINTS = (4, 8, 16)

#: Fraction of the offered tuple stream a leaf TOR fails to absorb
#: (slot-table misses, long keys, window evictions).  Model choice,
#: consistent with Table 1's 85–95 % switch-aggregation ratios.
LEAF_RESIDUAL = 0.15
#: Fraction of a rack's residual keys that also appear in sibling racks
#: of the same pod, and therefore merge away at the spine combiner.
#: Model choice (hot keys are hot everywhere).
KEY_OVERLAP = 0.75
#: Per-rack job volume for the JCT column (bytes of application tuples).
VOLUME_PER_RACK_BYTES = 1 << 30  # 1 GiB


@dataclass
class TreePoint:
    racks: int
    fanin: int  #: leaves per spine; 0 encodes the flat (no-spine) baseline
    spines: int
    receiver_gbps: float  #: residue arriving at the receiver link
    goodput_gbps: float  #: aggregate useful ingest actually sustained
    jct_s: float


@dataclass
class Fig13TreeResult:
    points: list[TreePoint] = field(default_factory=list)
    #: placement -> (values_sha256, spine_tuples, leaf_tuples) from the
    #: functional smallest-tree run.
    functional: dict[str, tuple[str, int, int]] = field(default_factory=dict)


def _point(racks: int, fanin: int, model: CostModel) -> TreePoint:
    """Cost-model one (racks, fan-in) configuration.

    ``fanin == 0`` is the flat §7 deployment: no spines, every leaf's
    residue crosses the core straight to the receiver host.
    """
    per_rack = ask_wire_gbps(model.max_payload_bytes // model.tuple_bytes, 4, model)
    offered = racks * per_rack
    if fanin == 0:
        spines = 0
        receiver_demand = racks * LEAF_RESIDUAL * per_rack
    else:
        spines = -(-racks // fanin)  # ceil
        # A spine merges its fan-in leaves' residue; only the non-shared
        # key fraction of each extra leaf survives the combiner.
        combined = LEAF_RESIDUAL * (1.0 + (1.0 - KEY_OVERLAP) * (fanin - 1))
        receiver_demand = spines * combined * per_rack
    # The receiver's single NIC is the bottleneck: past line rate, every
    # sender is back-pressured proportionally.
    scale = min(1.0, model.line_rate_gbps / receiver_demand)
    goodput = offered * scale
    jct = racks * VOLUME_PER_RACK_BYTES * 8 / (goodput * 1e9)
    return TreePoint(racks, fanin, spines, receiver_demand, goodput, jct)


def _run_functional() -> dict[str, tuple[str, int, int]]:
    """Run the smallest tree point (2 pods × 2 racks × 2 hosts) under every
    placement policy on the sim backend and fingerprint the results."""
    from repro.core.config import AskConfig
    from repro.core.results import reference_aggregate, values_sha256
    from repro.core.service import PLACEMENTS, SMALL_TREE, AskService

    streams = {
        f"h{i}": [(b"k%d" % (j % 11), i + j) for j in range(60)]
        for i in (0, 2, 4, 6)  # one sender per rack, all four racks
    }
    out: dict[str, tuple[str, int, int]] = {}
    for placement in PLACEMENTS:
        service = AskService(AskConfig.small(), pods=SMALL_TREE, placement=placement)
        try:
            result = service.aggregate(streams, receiver="h7", check=True)
            expected = reference_aggregate(streams, service.config.value_mask)
            if dict(result.items()) != expected:
                raise AssertionError(
                    f"tree placement {placement!r} diverged from the reference"
                )
            spine_tuples = sum(
                sw.stats.tuples_aggregated for sw in service.spines.values()
            )
            leaf_tuples = sum(
                sw.stats.tuples_aggregated for sw in service.switches.values()
            )
            out[placement] = (values_sha256(result.values), spine_tuples, leaf_tuples)
        finally:
            service.close()
    return out


def run(model: CostModel = DEFAULT_COST_MODEL) -> Fig13TreeResult:
    result = Fig13TreeResult()
    for racks in RACK_POINTS:
        result.points.append(_point(racks, 0, model))
        for fanin in FANIN_POINTS:
            result.points.append(_point(racks, fanin, model))
    result.functional = _run_functional()
    return result


def format_report(result: Fig13TreeResult) -> str:
    lines = [
        "Fig. 13 (tree) — goodput and JCT vs spine fan-in "
        f"(1 GiB/rack, leaf residue {LEAF_RESIDUAL:.0%}, "
        f"pod key overlap {KEY_OVERLAP:.0%})"
    ]
    rows = [
        [
            p.racks,
            "flat" if p.fanin == 0 else p.fanin,
            p.spines,
            f"{p.receiver_gbps:.1f}",
            f"{p.goodput_gbps:.0f}",
            f"{p.jct_s:.1f}",
        ]
        for p in result.points
    ]
    lines.append(
        format_table(
            ["racks", "fan-in", "spines", "rx demand", "goodput", "JCT (s)"], rows
        )
    )
    for racks in RACK_POINTS:
        flat = next(p for p in result.points if p.racks == racks and p.fanin == 0)
        best = min(
            (p for p in result.points if p.racks == racks and p.fanin != 0),
            key=lambda p: p.jct_s,
        )
        lines.append(
            f"  {racks} racks: spine combining at fan-in {best.fanin} cuts JCT "
            f"{flat.jct_s / best.jct_s:.1f}x vs flat"
        )
    lines.append("")
    lines.append(
        "functional point — 2 pods x 2 racks x 2 hosts, sim backend, every "
        "placement bit-identical to the reference:"
    )
    for placement, (digest, spine_tuples, leaf_tuples) in result.functional.items():
        lines.append(
            f"  {placement:>5}: values_sha256={digest[:16]}… "
            f"leaf tuples={leaf_tuples} spine tuples={spine_tuples}"
        )
    digests = {d for d, _, _ in result.functional.values()}
    lines.append(
        "  all placements hash identical: "
        + ("yes" if len(digests) == 1 else "NO — EQUIVALENCE VIOLATED")
    )
    return "\n".join(lines)
