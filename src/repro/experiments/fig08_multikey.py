"""Fig. 8: effectiveness of multi-key vectorization (§5.3).

(a) Single-host goodput vs tuples-per-packet against the ideal law
``8x/(8x+78)·100``: PPS-bound (linear) up to 32 tuples, PCIe glitches at
18 and 26, matches the ideal curve beyond 32.

(b) CDF of non-blank tuple slots per packet when the key-space partition
packs real (skewed) datasets: the uniform stream packs perfectly, yelp is
the worst at ≈17 valid tuples per 32-slot packet — still far better than
single-key systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import AskConfig
from repro.core.packer import PackStats, Packer
from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.perf.goodput import ask_goodput_gbps, ideal_goodput_gbps
from repro.perf.metrics import Series, format_table
from repro.workloads.datasets import get_dataset
from repro.workloads.generators import uniform_stream

#: Fig. 8(b) datasets, in the paper's order, plus the Uniform reference.
FIG8B_DATASETS = ("Uniform", "yelp", "NG", "BAC", "LMDB")

#: Scaled vocabulary per dataset for the packing run (the distinct-key
#: budget appropriate for the default 60 k-tuple stream; same calibration
#: rationale as Table 1's SCALED_VOCABULARY).
FIG8B_VOCABULARY = {"yelp": 20_000, "NG": 60_000, "BAC": 30_000, "LMDB": 20_000}


@dataclass
class Fig8aResult:
    measured: Series
    ideal: Series

    def glitch_depth(self, x: int) -> float:
        """How far point ``x`` dips below its neighbours' trend (Gbps)."""
        trend = (self.measured.y_at(x - 1) + self.measured.y_at(x + 1)) / 2
        return trend - self.measured.y_at(x)


@dataclass
class Fig8bResult:
    config: AskConfig
    stats: dict[str, PackStats] = field(default_factory=dict)

    def mean_occupancy(self, dataset: str) -> float:
        return self.stats[dataset].mean_occupied_slots()


def run_goodput(
    max_tuples: int = 64, channels: int = 4, model: CostModel = DEFAULT_COST_MODEL
) -> Fig8aResult:
    measured = Series("ASK goodput")
    ideal = Series("ideal")
    for x in range(1, max_tuples + 1):
        measured.add(x, ask_goodput_gbps(x, channels, model))
        ideal.add(x, ideal_goodput_gbps(x, model))
    return Fig8aResult(measured, ideal)


def run_packing(
    tuples_per_dataset: int = 60_000,
    config: AskConfig | None = None,
    vocabulary_size: int | None = None,
    seed: int = 11,
) -> Fig8bResult:
    """Pack each dataset's stream and record slot-occupancy CDFs."""
    cfg = config if config is not None else AskConfig()
    result = Fig8bResult(cfg)
    for name in FIG8B_DATASETS:
        if name == "Uniform":
            # The uniform reference trace uses fixed 4-byte keys, so the
            # switch is configured without medium-key groups: all 32 AAs
            # serve short keys and almost every packet is full.
            packer = Packer(
                AskConfig(
                    num_aas=cfg.num_aas,
                    aggregators_per_aa=cfg.aggregators_per_aa,
                    medium_key_groups=0,
                )
            )
            stream = uniform_stream(
                tuples_per_dataset, vocabulary_size or 20_000, seed=seed
            )
        else:
            packer = Packer(cfg)
            vocab = vocabulary_size or FIG8B_VOCABULARY[name]
            stream = get_dataset(name, vocab).stream(tuples_per_dataset, seed=seed)
        packer.add_stream(stream)
        packer.plan()  # counts the packets; none needs building
        result.stats[name] = packer.stats
    return result


def run(
    tuples_per_dataset: int = 60_000, model: CostModel = DEFAULT_COST_MODEL
) -> tuple[Fig8aResult, Fig8bResult]:
    return run_goodput(model=model), run_packing(tuples_per_dataset)


def format_report(result: tuple[Fig8aResult, Fig8bResult]) -> str:
    fig8a, fig8b = result
    lines = ["Fig. 8(a) — goodput vs tuples/packet (Gbps)"]
    rows = []
    for x in (1, 4, 8, 16, 17, 18, 19, 25, 26, 27, 32, 40, 48, 64):
        rows.append(
            [x, f"{fig8a.measured.y_at(x):.2f}", f"{fig8a.ideal.y_at(x):.2f}"]
        )
    lines.append(format_table(["tuples/pkt", "measured", "ideal"], rows))
    lines.append(
        f"glitch depth at 18: {fig8a.glitch_depth(18):.2f} Gbps, "
        f"at 26: {fig8a.glitch_depth(26):.2f} Gbps"
    )
    lines.append("")
    lines.append("Fig. 8(b) — non-blank tuple slots per packet")
    rows = []
    for name, stats in fig8b.stats.items():
        cdf = stats.occupancy_cdf()
        median = next((slots for slots, frac in cdf if frac >= 0.5), 0)
        rows.append(
            [
                name,
                f"{stats.mean_occupied_slots():.2f}",
                median,
                stats.packets,
                f"{stats.long_tuples}",
            ]
        )
    lines.append(
        format_table(["dataset", "mean slots", "median", "packets", "long keys"], rows)
    )
    return "\n".join(lines)
