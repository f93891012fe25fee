"""Vocabulary lookups shared by scenario validation and compilation.

The scenario schema refers to repo entities by name: platforms and
designs from :mod:`repro.platforms` / :mod:`repro.core.designs`,
benchmarks from :mod:`repro.workloads.suite`, disk configurations from
:mod:`repro.flashcache.analysis`, and fault profiles.  This module is
the single place those names are resolved so validation error messages
and the compiler can never disagree about what exists.
"""

from __future__ import annotations

from typing import List

from repro.cluster.balancer import Dispatch
from repro.core.designs import baseline_design, n1_design, n2_design
from repro.faults.model import (
    DEFAULT_FAULT_PROFILE,
    STRESS_FAULT_PROFILE,
    FaultProfile,
)
from repro.flashcache.analysis import DISK_CONFIGURATIONS
from repro.platforms.catalog import platform_names
from repro.workloads.suite import BENCHMARK_SUITE

#: Named fault profiles usable from a scenario's ``faults`` overlay.
#: ``stress`` is the accelerated profile EXT-8/EXT-11 inject (MTBFs in
#: seconds so a one-minute window sees failures); ``real-timescale`` is
#: the 3-year MTBF profile the cost layer prices.
_FAULT_PROFILES = {
    "stress": STRESS_FAULT_PROFILE,
    "real-timescale": DEFAULT_FAULT_PROFILE,
}


def fault_profile_names() -> List[str]:
    return list(_FAULT_PROFILES)


def fault_profile(name: str) -> FaultProfile:
    try:
        return _FAULT_PROFILES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown fault profile {name!r}; known: {fault_profile_names()}"
        ) from exc


def design_names() -> List[str]:
    """Platform names (baseline designs) plus the unified N1/N2 designs."""
    return list(platform_names()) + ["N1", "N2"]


def design(name: str):
    """Resolve a design name to a priced design object."""
    if name == "N1":
        return n1_design()
    if name == "N2":
        return n2_design()
    return baseline_design(name)


def benchmark_names() -> List[str]:
    return list(BENCHMARK_SUITE)


def disk_configuration_names() -> List[str]:
    return [config.name for config in DISK_CONFIGURATIONS]


#: Scenario dispatch names -> balancer enum.
DISPATCH = {
    "round-robin": Dispatch.ROUND_ROBIN,
    "least-outstanding": Dispatch.LEAST_OUTSTANDING,
}

#: Fail-slow resource dimension names (mirrors ``SlowResource`` values).
FAILSLOW_RESOURCES = ("cpu", "nic", "remote-mem", "flash")

#: Redundancy policy modes usable from a scenario overlay.
REDUNDANCY_MODES = ("replica", "parity", "unprotected")
