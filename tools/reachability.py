"""List every function in ``src/repro`` that no entry point runs.

Usage::

    python tools/reachability.py

Runs the user entry points in one process under ``sys.setprofile``, in a
temporary directory, and records every ``src/repro`` code object that is
called:

- ``repro-experiments --all --no-cache --jobs 1`` (all experiments,
  rendered), CI's ``table2`` and ``figure5 --method analytic`` (serial,
  so the profiler sees the analytic path), ``table2 figure1 --jobs 2``,
  and ``table1`` twice against one cache directory (a miss, then a hit);
- ``repro-scenario validate``, ``describe`` and ``run --quick`` on the
  four shipped specs;
- every ``examples/*.py``.

Every ``def`` in ``src/repro`` (nested ones included) is listed from its
AST.  The report prints each never-run definition as ``path:line name
(lines)``, skipping dunder methods and counting a ``def`` nested inside a
never-run ``def`` once, as part of its parent; the last line holds the
totals.  Code that runs only in ``--jobs`` worker processes is invisible
to the profiler.

Exits 1 when an entry point raises or exits non-zero, or when a module
that defines functions has none that ran.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import runpy
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

SPECS = (
    "examples/scenarios/ext8_availability.yaml",
    "examples/scenarios/ext10_overload.yaml",
    "examples/scenarios/ext11_trace_attribution.yaml",
    "examples/multirack_diurnal.yaml",
)


@dataclass
class Definition:
    path: Path
    start: int
    end: int
    name: str
    parent: Optional["Definition"]

    @property
    def lines(self) -> int:
        return self.end - self.start + 1

    @property
    def dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")


def list_definitions(path: Path) -> List[Definition]:
    """Every ``def`` in ``path``, keyed by the line its code object starts on."""
    found: List[Definition] = []

    def visit(node: ast.AST, parent: Optional[Definition]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code object starts at its first decorator.
                start = min([d.lineno for d in child.decorator_list] + [child.lineno])
                definition = Definition(path, start, child.end_lineno, child.name, parent)
                found.append(definition)
                visit(child, definition)
            else:
                visit(child, parent)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return found


def _entry_points(tmp: Path) -> List[Tuple[str, Callable[[], object]]]:
    """(label, thunk) per entry point; each thunk returns an exit status."""

    def cli(module: str, *argv: str) -> Callable[[], object]:
        return lambda: importlib.import_module(module).main(list(argv))

    def example(path: Path) -> Callable[[], object]:
        def run() -> None:
            runpy.run_path(str(path), run_name="__main__")
        return run

    experiments = "repro.experiments.runner"
    scenario = "repro.scenario.cli"
    specs = [str(ROOT / spec) for spec in SPECS]
    cache = str(tmp / "cache")
    points = [
        ("repro-experiments --all", cli(experiments, "--all", "--no-cache", "--jobs", "1")),
        ("repro-experiments table2", cli(experiments, "table2")),
        ("repro-experiments figure5 --method analytic",
         cli(experiments, "figure5", "--method", "analytic", "--no-cache")),
        ("repro-experiments table2 figure1 --jobs 2",
         cli(experiments, "table2", "figure1", "--jobs", "2", "--no-cache")),
        ("repro-experiments table1 (cache miss)", cli(experiments, "table1", "--cache-dir", cache)),
        ("repro-experiments table1 (cache hit)", cli(experiments, "table1", "--cache-dir", cache)),
        ("repro-scenario validate", cli(scenario, "validate", *specs)),
    ]
    for spec in specs:
        name = Path(spec).stem
        points.append((f"repro-scenario describe {name}", cli(scenario, "describe", spec)))
        points.append((
            f"repro-scenario run {name} --quick",
            cli(scenario, "run", spec, "--quick", "--output", str(tmp / name)),
        ))
    for path in sorted((ROOT / "examples").glob("*.py")):
        points.append((f"examples/{path.name}", example(path)))
    return points


def _run(label: str, thunk: Callable[[], object]) -> bool:
    """Run one entry point with its output captured; report a failure."""
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            status = thunk()
    except SystemExit as exc:
        status = exc.code
    except Exception:  # an entry point that raises fails the whole check
        status = traceback.format_exc()
    if status in (None, 0):
        return True
    print(f"{label}: failed ({status})", file=sys.stderr)
    print(output.getvalue(), file=sys.stderr)
    return False


def record_calls() -> Tuple[set, bool]:
    """Run every entry point under the profiler; return (code objects, all ok)."""
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    cwd = os.getcwd()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            for label, thunk in _entry_points(Path(tmp)):
                ok = _run(label, thunk) and ok
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    return seen, ok


def main() -> int:
    seen, ok = record_calls()
    ran = {
        (os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen
    }

    never_run: List[Definition] = []
    dead_modules: List[Path] = []
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        definitions = list_definitions(path)
        alive = {d.start for d in definitions if (os.path.realpath(path), d.start) in ran}
        if definitions and not alive:
            dead_modules.append(path)
        for definition in definitions:
            if definition.dunder:
                continue
            total += 1
            parent = definition.parent
            if definition.start in alive or (parent is not None and parent.start not in alive):
                continue
            never_run.append(definition)

    for d in never_run:
        print(f"{d.path.relative_to(ROOT)}:{d.start} {d.name} ({d.lines} lines)")
    for path in dead_modules:
        print(f"no definition ran: {path.relative_to(ROOT)}")
    lines = sum(d.lines for d in never_run)
    print(
        f"never run: {len(never_run)} of {total} definitions, {lines} lines; "
        f"modules with no definition run: {len(dead_modules)}"
    )
    return 0 if ok and not dead_modules else 1


if __name__ == "__main__":
    sys.exit(main())
