"""The abusive-tenant overload drill and its degradation accounting.

The drill itself (``repro chaos --overload``) asserts tenant isolation
internally — well-behaved tenants complete bit-exact and undegraded
while the abusive tenant's flood waits, degrades, or is bounced at the
queue bound.  These tests run it on both backends, pin its determinism
(serial and parallel-runner payloads identical), and check that the
degradation report's admission section balances.
"""

import contextlib
import io

from repro.chaos.drills import run_drill
from repro.chaos.schedule import ChaosSchedule
from repro.perf import parallel


def run_overload(backend, seed):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = run_drill("chaos-overload", backend, seed)
    return status, buffer.getvalue()


def test_overload_drill_holds_isolation_on_sim():
    status, out = run_overload("sim", 0)
    assert status == 0
    assert "isolation held" in out
    # The queue bound bit: a burst of 6 against a limit of 4.
    assert "rejected_full=2" in out
    # Both well-behaved tenants stayed on the switch path.
    assert out.count("degraded=False") == 2


def test_overload_drill_holds_isolation_on_asyncio():
    status, out = run_overload("asyncio", 0)
    assert status == 0
    assert "isolation held" in out
    assert "rejected_full=2" in out


def test_overload_drill_payload_is_deterministic():
    job = parallel.Job("drill", "chaos-overload", seed=7)
    first = parallel.run_job(job)
    second = parallel.run_job(job)
    assert first.ok, first.error
    assert second.ok, second.error
    assert first.payload == second.payload


def test_report_admission_section_balances():
    """Every queued task is accounted for exactly once:
    queued == granted + degraded + cancelled + rejected_deadline + waiting
    (rejected_full tasks never entered the queue and stay separate)."""
    import dataclasses

    from repro.chaos.report import DegradationReport
    from repro.core.config import AskConfig
    from repro.core.service import AskService

    config = dataclasses.replace(
        AskConfig.small(),
        admission_control=True,
        admission_retry_us=20.0,
        admission_backoff_cap_us=160.0,
        admission_deadline_us=120.0,
        admission_queue_limit=1,
    )
    service = AskService(config, hosts=3)
    hog = service.open_stream(["h0"], receiver="h2", region_size=32)
    service.run(until=service.clock.now + 50_000)
    granted = service.submit(
        {"h1": [(b"a", 1)] * 10}, receiver="h2", region_size=8
    )
    rejected = service.submit(
        {"h1": [(b"b", 1)] * 10}, receiver="h2", region_size=8
    )
    # granted's deadline lapses first (the hog holds everything), so it
    # degrades; rejected bounced at the queue bound of 1.
    service.run(until=service.clock.now + 500_000)
    hog.close()
    service.run_to_completion()

    schedule = ChaosSchedule(seed=0, horizon_ns=1, events=())
    report = DegradationReport.build(
        service.deployment, schedule, injected=[], tasks=service.tasks
    )
    adm = report.admission
    assert adm  # the deployment runs with admission control
    assert adm["queued"] == (
        adm["granted"] + adm["degraded"] + adm["cancelled"]
        + adm["rejected_deadline"] + adm["waiting"]
    )
    assert adm["degraded"] == 1 and adm["rejected_full"] == 1
    assert report.totals["admission_queued"] == adm["queued"]
    assert report.totals["admission_rejected"] == (
        adm["rejected_full"] + adm["rejected_deadline"]
    )
    # The summary carries the balance line and the JSON round-trips.
    assert "admission:" in report.summary()
    assert '"admission"' in report.to_json()
    assert granted.stats.degraded_to_bypass
    assert rejected.phase.value == "failed"
