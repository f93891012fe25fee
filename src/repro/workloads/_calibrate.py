"""Internal helper: scale a structural demand draw to calibrated means.

Each workload module builds a *structural* demand draw from its domain
model (Zipf query terms, mail-session action mixes, video catalogs, task
DAGs) for given per-component scale factors.  The structure fixes the
*shape* of each demand distribution; this helper probes the unscaled
draw with a fixed seed and builds it again with the factors that make
its mean demand match the calibrated targets recorded in the workload
profile (see DESIGN.md section 3, "Performance calibration").  The probe
and the calibrated draw are one implementation.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

from repro.workloads.base import DemandDraw, ResourceDemand

#: Probe draws used to estimate the structural draw's raw means.
_PROBE_SAMPLES = 20_000
_PROBE_SEED = 20080315  # arbitrary fixed seed; ISCA 2008 vintage

#: Factors that leave a structural draw unscaled (``x * 1.0`` is exact).
UNIT_FACTORS = (1.0, 1.0, 1.0, 1.0, 1.0)


def calibration_factors(raw_draw: DemandDraw, target: ResourceDemand) -> List[float]:
    """Per-component scale factors making ``raw_draw``'s mean ``target``.

    Components whose raw mean is zero stay zero (you cannot scale nothing
    into something); the workload must emit a structural value for every
    component it wants calibrated.
    """
    rng = random.Random(_PROBE_SEED)
    cpu = mem = ios = disk_bytes = net_bytes = 0.0
    for _ in range(_PROBE_SAMPLES):
        d = raw_draw(rng)
        cpu += d[0]
        mem += d[1]
        ios += d[2]
        disk_bytes += d[3]
        net_bytes += d[4]
    means = [s / _PROBE_SAMPLES for s in (cpu, mem, ios, disk_bytes, net_bytes)]
    targets = [
        target.cpu_ms_ref,
        target.mem_ms_ref,
        target.disk_ios,
        target.disk_bytes,
        target.net_bytes,
    ]
    return [(t / m if m > 0 else 0.0) for t, m in zip(targets, means)]


def calibrated_draw(
    make_draw: Callable[[Sequence[float]], DemandDraw],
    target: ResourceDemand,
) -> DemandDraw:
    """``make_draw(factors)`` with the factors that make its mean ``target``."""
    return make_draw(calibration_factors(make_draw(UNIT_FACTORS), target))
