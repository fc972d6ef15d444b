"""API-stability tests: everything the README/docs promise is importable."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


def test_service_import_path_does_not_load_numpy():
    """numpy serves the training app, the experiments and the workload
    generators; ``import repro`` must not pull it in."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_udp_backend_loads_neither_asyncio_nor_ssl():
    """The UDP backend's loop is one selector over the simulator's queue:
    importing ``repro`` and building a UDP rack leaves asyncio (and the
    ssl module it pulls in) unloaded."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = (
        "import sys\n"
        "from repro import AskConfig, AskService\n"
        "AskService(AskConfig.small(), hosts=2, backend='asyncio').close()\n"
        "print(sorted({'asyncio', 'ssl'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_version_is_set():
    assert repro.__version__


@pytest.mark.parametrize(
    "module",
    [
        "repro.core.service",
        "repro.core.controlplane",
        "repro.core.tenancy",
        "repro.switch.trio",
        "repro.switch.program",
        "repro.net.multirack",
        "repro.transport.congestion",
        "repro.apps.mapreduce.rdd",
        "repro.apps.training.allreduce",
        "repro.perf.report",
        "repro.experiments.fastsim",
        "repro.experiments.ablations",
        "repro.cli",
    ],
)
def test_documented_modules_import(module):
    importlib.import_module(module)


def test_readme_quickstart_verbatim():
    from repro import AskConfig, AskService

    service = AskService(AskConfig.small(), hosts=3)
    result = service.aggregate(
        {"h0": [(b"cat", 1), (b"dog", 2)], "h1": [(b"cat", 5)]},
        receiver="h2",
    )
    assert result[b"cat"] == 6


def test_subpackage_all_lists_are_accurate():
    for package_name in (
        "repro.core",
        "repro.net",
        "repro.switch",
        "repro.transport",
        "repro.workloads",
        "repro.baselines",
        "repro.perf",
    ):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"


def test_runtime_public_surface_is_locked():
    """The runtime layer's public names are a compatibility contract:
    backends and harnesses type against them, so additions are deliberate
    (update this list) and removals are breaking."""
    import repro.runtime

    assert set(repro.runtime.__all__) == {
        "AsyncioFabric",
        "AsyncioRunner",
        "Clock",
        "CodecError",
        "Deployment",
        "DeploymentBuilder",
        "Fabric",
        "FabricTimeoutError",
        "Node",
        "SimFabric",
        "SimRunner",
        "SwitchFabricView",
        "TaskRunner",
        "TimerHandle",
        "decode_packet",
        "encode_packet",
    }


def test_runtime_exports_resolve_lazily():
    import repro.runtime

    for name in repro.runtime.__all__:
        assert getattr(repro.runtime, name) is not None
    assert set(repro.runtime.__all__) <= set(dir(repro.runtime))


def test_runtime_unknown_attribute_raises():
    import repro.runtime

    with pytest.raises(AttributeError):
        repro.runtime.NoSuchThing
