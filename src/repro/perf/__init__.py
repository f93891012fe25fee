"""Performance layer: parallel execution, result caching, fast variates.

``repro.perf`` makes the evaluation pipeline itself fast (ROADMAP north
star: "runs as fast as the hardware allows") without changing a single
result:

- :mod:`repro.perf.parallel` -- process-pool experiment fan-out with
  order-preserving, seed-stable merging (``repro-experiments --jobs N``);
- :mod:`repro.perf.cache` -- a content-hashed experiment result cache
  keyed on experiment name + parameters + a source fingerprint;
- :mod:`repro.perf.variates` -- stream-identical fast exponential
  sampling for the DES hot paths;
- :mod:`repro.perf.kernels` -- single-pass miss-ratio-curve kernels
  (Mattson stack distances, vectorized) for the memory trace simulator;
- :mod:`repro.perf.cluster_kernels` -- the cohort request-lifecycle
  engine behind :meth:`repro.cluster.balancer.ClusterSimulator.run`.

The package holds no benchmark code: ``bench/run.py`` measures the
package end to end, and ``benchmarks/test_budgets.py`` holds the
in-run cost budgets of the kernels and the hot-path layers.
"""

from repro.perf.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, ResultCache, code_fingerprint
from repro.perf.kernels import (
    MissCounts,
    MissRatioCurve,
    miss_ratio_curve,
    stack_distances,
)
from repro.perf.parallel import (
    default_jobs,
    in_worker,
    intra_jobs,
    merge_telemetry,
    pmap,
    run_experiments,
    set_intra_jobs,
)
from repro.perf.variates import exponential_sampler

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "code_fingerprint",
    "default_jobs",
    "in_worker",
    "intra_jobs",
    "merge_telemetry",
    "pmap",
    "run_experiments",
    "set_intra_jobs",
    "exponential_sampler",
    "MissCounts",
    "MissRatioCurve",
    "miss_ratio_curve",
    "stack_distances",
]
