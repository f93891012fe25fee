"""Reference oracle: the ``Request``-sampler calibration probe.

This is ``repro.workloads._calibrate`` as it stood before the tuple demand
draws, kept unchanged so ``test_base.py`` can require the draws' probe to
return its factors bitwise.  The rest of this docstring is the original
module's.

Internal helper: scale a structured sampler to calibrated mean demands.

Each workload module builds a *structural* request sampler from its domain
model (Zipf query terms, mail-session action mixes, video catalogs, task
DAGs).  The structural sampler fixes the *shape* of each demand
distribution; this helper then computes per-component scale factors with a
fixed probe seed so the sampler's mean demand matches the calibrated
targets recorded in the workload profile (see DESIGN.md section 3,
"Performance calibration").
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.workloads.base import Request, ResourceDemand

#: Probe draws used to estimate the structural sampler's raw means.
_PROBE_SAMPLES = 20_000
_PROBE_SEED = 20080315  # arbitrary fixed seed; ISCA 2008 vintage


def calibration_factors(
    raw_sampler: Callable[[random.Random], Request],
    target: ResourceDemand,
) -> List[float]:
    """Per-component scale factors making ``raw_sampler``'s mean ``target``.

    Components whose raw mean is zero stay zero (you cannot scale nothing
    into something); the workload must emit a structural value for every
    component it wants calibrated.  Exposed separately from
    :func:`calibrated_sampler` so a workload can share ONE probe run
    between its object-building sampler and a fast tuple-returning demand
    path (:attr:`repro.workloads.base.Workload.fast_demand`) that must
    apply bitwise-identical factors.
    """
    rng = random.Random(_PROBE_SEED)
    sums = [0.0] * 5
    for _ in range(_PROBE_SAMPLES):
        d = raw_sampler(rng).demand
        sums[0] += d.cpu_ms_ref
        sums[1] += d.mem_ms_ref
        sums[2] += d.disk_ios
        sums[3] += d.disk_bytes
        sums[4] += d.net_bytes
    means = [s / _PROBE_SAMPLES for s in sums]
    targets = [
        target.cpu_ms_ref,
        target.mem_ms_ref,
        target.disk_ios,
        target.disk_bytes,
        target.net_bytes,
    ]
    return [(t / m if m > 0 else 0.0) for t, m in zip(targets, means)]


def calibrated_sampler(
    raw_sampler: Callable[[random.Random], Request],
    target: ResourceDemand,
    factors: Optional[List[float]] = None,
) -> Callable[[random.Random], Request]:
    """Wrap ``raw_sampler`` so its mean demand equals ``target``.

    ``factors`` (from :func:`calibration_factors`) may be passed in to
    avoid re-running the probe when the caller also builds a fast demand
    path from the same factors.
    """
    if factors is None:
        factors = calibration_factors(raw_sampler, target)

    def sampler(sample_rng: random.Random) -> Request:
        raw = raw_sampler(sample_rng)
        d = raw.demand
        return Request(
            demand=ResourceDemand(
                cpu_ms_ref=d.cpu_ms_ref * factors[0],
                mem_ms_ref=d.mem_ms_ref * factors[1],
                disk_ios=d.disk_ios * factors[2],
                disk_bytes=d.disk_bytes * factors[3],
                net_bytes=d.net_bytes * factors[4],
                disk_write=d.disk_write,
                cpu_parallelism=d.cpu_parallelism,
            ),
            kind=raw.kind,
        )

    return sampler
