"""The benchmark's workloads: inputs made from the seed, the operations a
user runs, and the checks on their outputs.

Every workload is a batch job with one client, run serially.  An
operation is one paper experiment or one scenario spec file; it fails if
it raises or if a check on its output fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent

#: The paper's figures and the validation report, in ``repro-experiments``
#: order.
PAPER_EXPERIMENTS = ("figure2", "table3", "figure5", "validation")

#: Seed 1 reproduces the committed ``results/validation_report.txt``:
#: 104/146 cells within +/-25 pp, mean absolute delta 23.8 pp.  A change
#: may raise the count and lower the delta, never the reverse.
SEED1_IN_BAND = 104
SEED1_MEAN_ABS_PP = 23.8 + 0.5
#: For other seeds (seeds 1-10 give 104-111 cells, 21.3-23.8 pp) only a
#: broken model falls outside these.
MIN_IN_BAND = 90
MAX_MEAN_ABS_PP = 30.0
VALIDATION_BAND = 0.25


def scenario_seeds(seed: int, copies: int) -> List[int]:
    """Scenario seeds for one bench seed; disjoint across bench seeds."""
    return [1000 * seed + i for i in range(copies)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class PaperFigures:
    """``run_experiment`` + ``render()`` for the paper's figures."""

    name = "paper_figures"

    def setup(self, seed: int, workdir: Path) -> List[str]:
        from repro.experiments import runner  # noqa: F401  (import cost)
        from repro.simulator.server_sim import SimConfig

        self.config = SimConfig(seed=seed)
        self.seed = seed
        return list(PAPER_EXPERIMENTS)

    def run(self, op: str):
        from repro.experiments import runner

        result = runner.run_experiment(op, config=self.config)
        return result, result.render()

    def run_parallel(self, ops: List[str], jobs: int) -> Dict[str, tuple]:
        """The same experiments fanned out like ``repro-experiments --jobs``."""
        from repro.perf import parallel

        parallel.set_intra_jobs(jobs)
        pairs = parallel.run_experiments(
            ops, jobs=jobs, cache=None,
            overrides={op: {"config": self.config} for op in ops})
        return {op: (result, result.render()) for op, result in pairs}

    def check(self, op: str, output) -> Tuple[str, List[str], Dict[str, float]]:
        """``(digest, problems, fidelity)`` for one experiment's output."""
        result, text = output
        problems: List[str] = []
        fidelity: Dict[str, float] = {}
        if not text.startswith("=== ") or len(result.sections) == 0:
            problems.append(f"{op}: empty or malformed rendering")
        if op == "validation":
            deltas = [d for block in result.data.values() for d in block]
            in_band = sum(1 for d in deltas if d.within(VALIDATION_BAND))
            mean_abs = 100 * sum(abs(d.absolute_delta) for d in deltas) / max(len(deltas), 1)
            fidelity = {"validation_in_band": in_band,
                        "validation_mean_abs_pp": mean_abs}
            floor, ceiling = ((SEED1_IN_BAND, SEED1_MEAN_ABS_PP)
                              if self.seed == 1 else (MIN_IN_BAND, MAX_MEAN_ABS_PP))
            if len(deltas) != 146:
                problems.append(f"validation compared {len(deltas)} cells, not 146")
            if in_band < floor:
                problems.append(f"validation: {in_band} cells in band, below {floor}")
            if mean_abs > ceiling:
                problems.append(
                    f"validation: mean delta {mean_abs:.2f} pp above {ceiling:.1f}")
        return _sha(text.encode("utf-8")), problems, fidelity


class Scenarios:
    """Shipped scenario specs, re-seeded, run through ``repro-scenario run``."""

    def __init__(self, name: str, specs: Tuple[str, ...], copies: int):
        self.name = name
        self.specs = specs
        self.copies = copies

    def inputs(self, seed: int, workdir: Path) -> List[Path]:
        """Write one re-seeded YAML file per (spec, copy); return them."""
        from repro.scenario.loader import load_scenario, save_scenario

        paths = []
        # Operations whose spec enables tracing, so the CLI exports spans.
        self.traced = set()
        for spec in self.specs:
            base = load_scenario(REPO / spec)
            if any(overlay.tracing is not None for overlay in base.overlays):
                self.traced.update(
                    f"{Path(spec).stem}-{i}" for i in range(self.copies))
            for i, scenario_seed in enumerate(scenario_seeds(seed, self.copies)):
                path = workdir / f"{Path(spec).stem}-{i}.yaml"
                save_scenario(dataclasses.replace(base, seed=scenario_seed), path)
                paths.append(path)
        return paths

    def setup(self, seed: int, workdir: Path) -> List[str]:
        from repro.scenario import cli  # noqa: F401  (import cost)

        self.workdir = workdir
        return [path.stem for path in self.inputs(seed, workdir)]

    def run(self, op: str, jobs: int = 1):
        from repro.scenario import cli

        out = self.workdir / f"{op}.out{jobs}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(self.workdir / f"{op}.yaml"),
                             "--output", str(out), "--jobs", str(jobs)])
        return code, out

    def run_parallel(self, ops: List[str], jobs: int) -> Dict[str, tuple]:
        return {op: self.run(op, jobs) for op in ops}

    def check(self, op: str, output) -> Tuple[str, List[str], Dict[str, float]]:
        from repro.obs.export import validate_chrome_trace

        code, out = output
        if code != 0:
            return "", [f"{op}: repro-scenario run exited {code}"], {}
        problems: List[str] = []
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        if not result["runs"]:
            problems.append(f"{op}: no runs")
        for run in result["runs"]:
            if not run["throughput_rps"] > 0:
                problems.append(f"{op}: run {run['run_id']} served nothing")
        parts = [result["digest"]]
        if op in self.traced:
            spans = (out / "spans.jsonl").read_bytes()
            trace = (out / "trace.json").read_bytes()
            if not spans.strip():
                problems.append(f"{op}: spans.jsonl is empty")
            problems += [f"{op}: trace.json: {p}"
                         for p in validate_chrome_trace(json.loads(trace))[:3]]
            parts += [_sha(spans), _sha(trace)]
        return _sha("\n".join(parts).encode("utf-8")), problems, {}


WORKLOADS = {
    w.name: w for w in (
        PaperFigures(),
        Scenarios("scenarios_openloop",
                  ("examples/scenarios/ext10_overload.yaml",
                   "examples/multirack_diurnal.yaml"),
                  copies=2),
        Scenarios("scenarios_faults_traced",
                  ("examples/scenarios/ext8_availability.yaml",
                   "examples/scenarios/ext11_trace_attribution.yaml"),
                  copies=3),
    )
}
