"""Public-API surface checks: every exported name resolves and works."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.costmodel",
    "repro.platforms",
    "repro.workloads",
    "repro.simulator",
    "repro.memsim",
    "repro.flashcache",
    "repro.cooling",
    "repro.cluster",
    "repro.faults",
    "repro.obs",
    "repro.perf",
    "repro.validation",
    "repro.experiments",
    "repro.scenario",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    module = importlib.import_module(package)
    assert module is not None


@pytest.mark.parametrize("package", [p for p in PACKAGES if p != "repro.experiments"])
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_top_level_convenience_imports():
    import repro

    assert repro.__version__ == "1.0.0"
    assert callable(repro.n1_design)
    assert callable(repro.n2_design)
    assert callable(repro.harmonic_mean)


def _pyproject() -> str:
    import pathlib

    import repro

    return (pathlib.Path(repro.__file__).parents[2] / "pyproject.toml").read_text()


def test_version_matches_pyproject():
    import re

    import repro

    match = re.search(r'^version = "(.+)"$', _pyproject(), re.M)
    assert match and match.group(1) == repro.__version__


def test_console_scripts_resolve():
    """Every ``[project.scripts]`` entry names a callable that imports,
    so a console script cannot outlive its module."""
    import re

    section = re.search(
        r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", _pyproject(), re.M | re.S
    )
    assert section
    lines = [line for line in section.group(1).splitlines() if line.strip()]
    assert lines
    for line in lines:
        entry = re.fullmatch(r'([\w-]+) = "([\w.]+):(\w+)"', line)
        assert entry, line
        module, function = entry.group(2), entry.group(3)
        target = getattr(importlib.import_module(module), function, None)
        assert callable(target), line


class TestEndToEndSmoke:
    """The README quickstart, executed."""

    def test_readme_quickstart_flow(self):
        from repro.costmodel import SERVER_BILLS, TcoModel
        from repro.platforms import platform
        from repro.simulator import measure_performance
        from repro.workloads import make_workload

        perf = measure_performance(
            platform("emb1"), make_workload("mapred-wc"), method="analytic"
        )
        assert perf.score > 0

        tco = TcoModel().breakdown(SERVER_BILLS["emb1"])
        assert tco.total_usd > tco.hardware_total_usd > 0

    def test_design_comparison_flow(self):
        from repro.core import evaluate_designs, baseline_design, n2_design

        evaluation = evaluate_designs(
            [baseline_design("srvr1"), n2_design()],
            ["mapred-wc"],
            baseline="srvr1",
            method="analytic",
        )
        assert evaluation.table("Perf/TCO-$").value("mapred-wc", "N2") > 1.0
