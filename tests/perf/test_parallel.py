"""The parallel experiment runner is a pure scheduling change: same plan,
same merged report, whatever the worker count or completion order."""

from repro.experiments import fig09_prioritization
from repro.perf import parallel


def test_plan_orders_experiments_then_chaos_and_shards_fig09():
    jobs = parallel.plan(["fig03", "fig09", "fig13"], chaos_seeds=(0, 7))
    labels = [job.label for job in jobs]
    assert labels == [
        "fig03",
        "fig09[Uniform]",
        "fig09[Zipf]",
        "fig09[Zipf (reverse)]",
        "fig13",
        "chaos[seed=0]",
        "chaos[seed=7]",
        "chaos-tree[seed=0]",
        "chaos-tree[seed=7]",
        "chaos-overload[seed=0]",
        "chaos-overload[seed=7]",
        "chaos-gray[seed=0]",
        "chaos-gray[seed=7]",
    ]


def test_plan_rejects_unknown_experiments():
    import pytest

    with pytest.raises(KeyError, match="nope"):
        parallel.plan(["nope"], chaos_seeds=())


def test_plan_without_sharding_keeps_fig09_whole():
    jobs = parallel.plan(["fig09"], chaos_seeds=(), shard=False)
    assert [job.kind for job in jobs] == ["experiment"]


def test_fig09_shard_merge_equals_direct_run():
    """Per-kind shards share no state, so the reassembled figure must be
    byte-identical to the unsharded sweep."""
    small = dict(num_keys=256, num_tuples=2000, ratio_exponents=range(-3, 1))
    direct = fig09_prioritization.format_report(fig09_prioritization.run(**small))
    partials = [
        parallel.JobResult(
            job=parallel.Job("fig09-shard", "fig09", shard=kind),
            ok=True,
            payload=fig09_prioritization.run(kinds=(kind,), **small),
        )
        for kind in fig09_prioritization.STREAM_KINDS
    ]
    assert parallel._merge_fig09(partials) == direct


def test_merge_keeps_plan_order_and_renders_errors_in_place():
    jobs = [
        parallel.Job("experiment", "fig03"),
        parallel.Job("experiment", "fig13"),
        parallel.Job("drill", "chaos", seed=3),
    ]
    results = [
        parallel.JobResult(jobs[0], ok=True, payload="A"),
        parallel.JobResult(jobs[1], ok=False, payload="", error="boom"),
        parallel.JobResult(jobs[2], ok=True, payload="C"),
    ]
    sections = parallel.merge(jobs, results)
    assert sections == [
        ("fig03", "A"),
        ("fig13", "ERROR boom"),
        ("chaos[seed=3]", "C"),
    ]


def test_run_job_failure_is_captured_not_raised():
    result = parallel.run_job(parallel.Job("no-such-kind", "x"))
    assert not result.ok
    assert "no-such-kind" in result.error


def test_serial_and_parallel_suites_render_identically():
    names = ["fig03", "fig13"]
    serial = parallel.run_suite(names, chaos_seeds=(0,), workers=1)
    pooled = parallel.run_suite(names, chaos_seeds=(0,), workers=2)
    assert serial.ok and pooled.ok
    assert pooled.workers == 2
    assert parallel.verify_identical(serial, pooled)
    assert serial.text() == pooled.text()


def test_suite_text_has_one_section_per_merged_unit():
    run = parallel.run_suite(["fig03"], chaos_seeds=(), workers=1)
    assert [label for label, _ in run.sections] == ["fig03"]
    assert run.text().startswith("### fig03\n")
