"""Regenerates Fig. 13 (tree): goodput/JCT vs spine fan-in.

The analytic sweep extends Fig. 13(b)'s cost model one level up; the
functional point runs the smallest spine–leaf tree under every placement
policy on the sim backend.  Its rows — ``values_sha256`` plus leaf and
spine tuple counts per placement — make the results file a golden output
of the region planner: a planner change that moves a region moves a count.
"""

from repro.core.service import PLACEMENTS
from repro.experiments import fig13_tree


def test_fig13_tree(benchmark, report):
    result = benchmark.pedantic(fig13_tree.run, iterations=1, rounds=1)
    report("fig13_tree", fig13_tree.format_report(result))
    assert set(result.functional) == set(PLACEMENTS)
    # Every placement reproduces the same exact aggregate.
    assert len({digest for digest, _, _ in result.functional.values()}) == 1
    # Leaf placement keeps the spines pure transit and spine placement
    # keeps the leaves stateless.  Under "both", one sender per rack lets
    # each relay leaf absorb its whole stream before the spine sees it.
    _, leaf_spine, leaf_leaf = result.functional["leaf"]
    _, spine_spine, spine_leaf = result.functional["spine"]
    _, _, both_leaf = result.functional["both"]
    assert leaf_spine == 0 and leaf_leaf > 0
    assert spine_leaf == 0 and spine_spine > 0
    assert both_leaf == leaf_leaf
    # Spine combining beats the flat baseline at every simulated scale.
    for racks in fig13_tree.RACK_POINTS:
        flat = next(p for p in result.points if p.racks == racks and p.fanin == 0)
        assert all(
            p.jct_s < flat.jct_s
            for p in result.points
            if p.racks == racks and p.fanin != 0
        )
