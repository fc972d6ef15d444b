"""Property: the PISA and Trio backends compute the same aggregates.

Both run the one ASK switch pipeline; only the aggregation store differs
(register arrays with coalesced segments vs DRAM tables over full keys).
The service contract is the same on every layout, with failure detection
on or off; any divergence in final results would be a bug in one store.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.service import AskService
from repro.net.fault import FaultModel
from repro.switch.trio import TrioSwitch
from tests.conftest import fuzz_budget

#: Sender h0 and receiver h1 share one rack, or sit in two racks of a flat
#: mesh, or in two racks of one pod (leaf and spine regions).
LAYOUTS = {
    "rack": {"hosts": 2},
    "mesh": {"racks": {"r0": ["h0"], "r1": ["h1"]}},
    "tree": {"pods": {"p0": {"r0": ["h0"], "r1": ["h1"]}}},
}


def _aggregate(
    factory, streams, fault_seed, region_size, layout="rack", failure_detection=False
):
    cfg = AskConfig.small(
        shadow_copy=False,
        swap_threshold_packets=16,
        failure_detection=failure_detection,
    )
    kwargs = {"switch_factory": factory} if factory is not None else {}
    fault = FaultModel(
        loss_rate=0.05, duplicate_rate=0.05, reorder_rate=0.05, seed=fault_seed
    )
    service = AskService(cfg, fault=fault, **LAYOUTS[layout], **kwargs)
    return service.aggregate(
        {"h0": list(streams)}, receiver="h1", region_size=region_size, check=True
    )


@settings(
    max_examples=fuzz_budget(20),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 1000),
    num_keys=st.integers(1, 25),
    tuples=st.integers(1, 150),
    region=st.sampled_from([1, 4, 16]),
    key_length=st.sampled_from([3, 6, 14]),  # short / medium / long keys
    layout=st.sampled_from(sorted(LAYOUTS)),
    failure_detection=st.booleans(),
)
def test_pisa_and_trio_agree(
    seed, num_keys, tuples, region, key_length, layout, failure_detection
):
    rng = random.Random(seed)
    keys = [("k%0*d" % (key_length - 1, i)).encode() for i in range(num_keys)]
    stream = [(rng.choice(keys), rng.randint(0, 2**20)) for _ in range(tuples)]
    pisa = _aggregate(None, stream, seed, region, layout, failure_detection)
    trio = _aggregate(TrioSwitch, stream, seed, region, layout, failure_detection)
    assert pisa.values == trio.values
    # Totals are conserved on both backends.
    assert (
        pisa.stats.tuples_aggregated_at_switch + pisa.stats.tuples_merged_at_receiver
        == tuples
    )
    assert (
        trio.stats.tuples_aggregated_at_switch + trio.stats.tuples_merged_at_receiver
        == tuples
    )


def test_trio_never_aggregates_less_than_pisa_on_mixed_keys():
    rng = random.Random(3)
    keys = (
        [("s%02d" % i).encode() for i in range(10)]
        + [("med%03d" % i).encode() for i in range(10)]
        + [("long-key-%06d" % i).encode() for i in range(10)]
    )
    stream = [(rng.choice(keys), 1) for _ in range(600)]
    pisa = _aggregate(None, stream, 3, region_size=32)
    trio = _aggregate(TrioSwitch, stream, 3, region_size=32)
    assert (
        trio.stats.switch_aggregation_ratio >= pisa.stats.switch_aggregation_ratio
    )
