"""Import layers: the package stands alone, and its layers load apart.

No module of the ``repro`` package imports the repository's ``tests``,
``benchmarks`` or ``bench`` trees: an installed package ships without
them, and the oracles under ``tests/`` are where code leaves the
package when only tests still run it.

The EXT-8/EXT-10/EXT-11 modules run library scenarios, but import the
scenario layer inside ``run()``: loading the experiment runner must not
pay for it.  The scenario layer, in turn, names the stress fault
profile without loading any experiment module; the shared table
formatter (``repro.experiments.reporting``) is the one exception.
"""

import ast
import os
import pathlib
import subprocess
import sys

import repro

_SRC = str(pathlib.Path(repro.__file__).parents[1])

#: Top-level packages of the repository that the package must not import.
_OUTSIDE = {"tests", "benchmarks", "bench"}


def test_package_imports_nothing_outside_it():
    """Every import statement, at module level, inside functions and
    under ``TYPE_CHECKING`` alike."""
    package = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.relative_to(package.parent)}:{node.lineno}: {name}"
                for name in names if name.split(".")[0] in _OUTSIDE
            ]
    assert offenders == []


def _modules_after(statements: str) -> set:
    """The ``sys.modules`` keys of a fresh interpreter after ``statements``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    code = f"{statements}\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return set(out.split())


def test_experiment_runner_loads_no_scenario_module():
    modules = _modules_after("import repro.experiments.runner")
    assert "repro.experiments.availability" in modules
    assert sorted(m for m in modules if m.startswith("repro.scenario")) == []


def test_fault_profile_lookup_loads_no_experiment_module():
    modules = _modules_after(
        "from repro.scenario import registry\n"
        "registry.fault_profile('stress')"
    )
    experiments = {m for m in modules if m.startswith("repro.experiments")}
    assert experiments <= {"repro.experiments", "repro.experiments.reporting"}
