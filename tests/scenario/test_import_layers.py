"""The experiment runner and the scenario layer import independently.

The EXT-8/EXT-10/EXT-11 modules run library scenarios, but import the
scenario layer inside ``run()``: loading the experiment runner must not
pay for it.  The scenario layer, in turn, names the stress fault
profile without loading any experiment module; the shared table
formatter (``repro.experiments.reporting``) is the one exception.
"""

import os
import pathlib
import subprocess
import sys

import repro

_SRC = str(pathlib.Path(repro.__file__).parents[1])


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
