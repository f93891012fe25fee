"""Run experiments from the command line.

Examples::

    repro-experiments --list
    repro-experiments figure1 table2
    repro-experiments --all --method analytic
    repro-experiments --all --jobs 4
    repro-experiments --all --no-cache
    python -m repro.experiments.runner figure5

``--jobs N`` fans experiments (and the design grids inside a single
experiment) across N worker processes; results are merged in request
order and are bit-identical to a serial run.  Results are cached in
``.repro-cache/`` keyed on experiment, parameters, and a source-code
fingerprint -- edit any file under ``src/repro`` and the cache
invalidates itself; ``--no-cache`` bypasses it entirely.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict

from repro.experiments import (
    ablation,
    availability,
    blade_contention,
    diurnal,
    failslow,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    future,
    heterogeneous,
    latency_load,
    overload,
    power_accounting,
    redundancy,
    scaleout,
    sensitivity,
    table1,
    table2,
    table3,
    trace_attribution,
    validation,
)
from repro.experiments.reporting import ExperimentResult
from repro.perf.cache import ResultCache
from repro.perf.parallel import default_jobs, run_experiments, set_intra_jobs

#: name -> (factory accepting **kwargs, supports-method-kwarg)
_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "figure1": figure1.run,
    "table2": table2.run,
    "figure2": figure2.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "table3": table3.run,
    "figure5": figure5.run,
    "sensitivity": sensitivity.run,
    "ablation": ablation.run,
    "scaleout": scaleout.run,
    "diurnal": diurnal.run,
    "validation": validation.run,
    "future": future.run,
    "power": power_accounting.run,
    "contention": blade_contention.run,
    "latency": latency_load.run,
    "heterogeneous": heterogeneous.run,
    "availability": availability.run,
    "overload": overload.run,
    "trace_attribution": trace_attribution.run,
    "failslow": failslow.run,
    "redundancy": redundancy.run,
}

#: Experiments that accept a ``method`` keyword (DES vs analytic).
_METHOD_AWARE = {"figure2", "table3", "figure5", "sensitivity", "ablation", "future"}

#: Relative single-run cost of each experiment: wall-clock seconds of
#: one serial run of the experiment alone in a fresh interpreter, on a
#: 2-vCPU x86 VM -- a *scheduling hint only*, never touching results:
#: ``--jobs N`` submits cache misses longest-first (LPT), so a long
#: experiment starts immediately instead of landing on a nearly drained
#: pool and stretching the sweep by its full duration.  Stale entries
#: cost nothing but scheduling efficiency; unlisted experiments default
#: to a middling weight.
_COST_HINTS: Dict[str, float] = {
    "validation": 5.6,
    "failslow": 4.2,
    "figure4": 3.9,
    "sensitivity": 3.8,
    "redundancy": 3.1,
    "table3": 2.8,
    "ablation": 2.7,
    "figure5": 2.5,
    "contention": 2.3,
    "overload": 2.1,
    "future": 2.1,
    "heterogeneous": 1.9,
    "figure2": 1.9,
    "trace_attribution": 1.7,
    "scaleout": 1.5,
    "power": 1.3,
    "availability": 1.0,
    "latency": 0.7,
    "table1": 0.3,
    "figure1": 0.1,
    "table2": 0.1,
    "figure3": 0.1,
    "diurnal": 0.1,
}


def run_experiment(name: str, method: str = "sim", **overrides) -> ExperimentResult:
    """Run one experiment by name.

    ``overrides`` are forwarded to the experiment's ``run()`` (tests use
    them to shrink workloads; see each experiment for its parameters).
    """
    try:
        factory = _EXPERIMENTS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(_EXPERIMENTS)}"
        ) from exc
    if name in _METHOD_AWARE:
        return factory(method=method, **overrides)
    return factory(**overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment names")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--method",
        choices=["sim", "analytic"],
        default="sim",
        help="performance model: discrete-event simulation or analytic MVA",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the rendered results to FILE",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for experiment fan-out (0 = one per core; "
        "results are identical to --jobs 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, ignoring the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result-cache directory (default .repro-cache/, or "
        "$REPRO_CACHE_DIR)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in _EXPERIMENTS:
            print(name)
        return 0

    names = list(_EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 2
    unknown = [name for name in names if name not in _EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"known: {', '.join(_EXPERIMENTS)}"
        )
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    # A single experiment cannot fan out at the experiment level, so let
    # its internal design/benchmark grids use the same job budget (the
    # two levels never nest: workers always run serially).
    set_intra_jobs(jobs)
    cache = (
        None
        if args.no_cache
        else ResultCache(Path(args.cache_dir) if args.cache_dir else None)
    )

    rendered = []
    for _, result in run_experiments(
        names, method=args.method, jobs=jobs, cache=cache
    ):
        text = result.render()
        print(text)
        print()
        rendered.append(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(rendered) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
