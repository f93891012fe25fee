"""Adaptive client driver: maximum throughput under QoS.

The paper's Perl-based client driver "can adapt the number of simultaneous
clients according to recently observed QoS results, to achieve the highest
level of throughput without overloading the servers."  This module
reproduces that control loop on top of the DES:

1. Start from an analytic estimate of the saturating population.
2. If QoS fails there, halve the population until it holds (or one
   client is left); otherwise grow it geometrically while QoS holds and
   throughput still improves.
3. Binary-search the boundary between the last passing and first failing
   population.

No step reads more than ``qos_met`` from a failing population above one
client.  So where every population is an independent run -- on the
platform's own disk, or behind a disk model whose class declares it
``stateless`` (local and SAN disks) -- such an evaluation stops at the
measured completion that makes its QoS failure certain
(:meth:`~repro.simulator.server_sim.ServerSimulator.run`'s
``stop_at_qos_failure``).  Behind a flash cache it runs in full: one
model serves the whole sweep, and the cache carries its state from one
population to the next; so does any model that declares nothing.  A
stopped point has fewer ``measured_requests`` than the config asks for;
:meth:`QosSweep.explored` runs it again in full before anyone reads its
numbers.

If QoS cannot be met even with a single client (e.g. emb2 running
webmail, where one request's service time already exceeds the latency
budget), the driver reports the single-client throughput with
``qos_met=False``, from a full run -- the platform runs in a degraded
mode, matching the paper's observation that emb2 "consistently
underperforms".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.platforms.platform import Platform
from repro.simulator.analytic import AnalyticServerModel
from repro.simulator.server_sim import DiskModel, ServerSimulator, SimConfig, SimResult
from repro.workloads.base import Workload

#: Stop growing the population when throughput improves less than this.
_MIN_GAIN = 0.02
#: Hard cap on client population explored by the driver.
_MAX_POPULATION = 4096

#: Whole scores of :func:`repro.simulator.performance.measure_performance`,
#: keyed on (platform, workload profile, measurement config, disk service
#: key, memory slowdown, method).  A score is a pure function of that key:
#: each sweep builds its disk model fresh from the frozen spec, and one
#: model serves every population of the sweep (a flash cache stays warm
#: from run to run), so the memo holds whole sweeps, never single runs.
_PERF_MEMO: Dict[tuple, object] = {}

#: Cross-instance memo of simulated operating points for sweeps run
#: outside :func:`~repro.simulator.performance.measure_performance`
#: (whose repeats hit ``_PERF_MEMO`` first): ``power_accounting``
#: re-sweeps points the figures already scored.  Every operating point
#: on the platform disk is a pure function of (platform, workload
#: profile, population, measurement config, memory slowdown), so a hit
#: reproduces the same ``SimResult`` bit for bit -- or the stopped run
#: of a failing point, which :meth:`QosSweep.explored` replaces with the
#: full run when it needs the numbers.  Sweeps with a live disk model
#: (stateful: flash caches warm up, fail and recover) or unhashable
#: parameters bypass it.  Values must be treated as read-only, which
#: every caller does.
_SIM_MEMO: Dict[tuple, SimResult] = {}

#: Analytic warm-start estimates, memoized per (platform, profile).
_ESTIMATE_MEMO: Dict[tuple, int] = {}


def clear_sweep_memo() -> None:
    """Drop all memoized scores and sweep results (for tests and benchmarks)."""
    _PERF_MEMO.clear()
    _SIM_MEMO.clear()
    _ESTIMATE_MEMO.clear()


@dataclass
class SweepResult:
    """Best operating point found by the adaptive driver."""

    best: SimResult
    population: int
    evaluations: int

    @property
    def throughput_rps(self) -> float:
        return self.best.throughput_rps

    @property
    def qos_met(self) -> bool:
        return self.best.qos_met


class QosSweep:
    """Finds the peak-QoS operating point for one (platform, workload)."""

    def __init__(
        self,
        platform: Platform,
        workload: Workload,
        config: SimConfig = SimConfig(),
        disk_model: Optional[DiskModel] = None,
        memory_slowdown: float = 1.0,
    ):
        self._platform = platform
        self._workload = workload
        self._config = config
        self._disk_model = disk_model
        self._memory_slowdown = memory_slowdown
        #: Whether a failing population may stop early (module docstring).
        self._stoppable = disk_model is None or getattr(
            type(disk_model), "stateless", False
        )
        self._cache: Dict[int, SimResult] = {}

    def explored(self) -> Dict[int, SimResult]:
        """All operating points simulated so far (population -> result).

        Each is a full run: a point the search stopped at its QoS
        failure is simulated again in full here, and the full run
        replaces the stopped one in the process-wide memo too.
        """
        for population, result in self._cache.items():
            if result.measured_requests < self._config.measure_requests:
                result = self._cache[population] = self._run(population)
                key = self._memo_key(population)
                if key is not None:
                    _SIM_MEMO[key] = result
        return dict(self._cache)

    def _memo_key(self, population: int) -> Optional[tuple]:
        """Process-wide memo key, or None when memoization is unsafe."""
        if self._disk_model is not None:
            # Disk models can carry state across requests (flash caches
            # fail/recover) and are not part of a hashable key.
            return None
        key = (
            self._platform,
            self._workload.profile,
            population,
            self._config,
            self._memory_slowdown,
        )
        try:
            hash(key)
        except TypeError:  # pragma: no cover - defensive
            return None
        return key

    def _simulate(self, population: int) -> SimResult:
        """The search's evaluation of ``population``: stopped at its QoS
        failure where the points are independent and the search reads
        nothing else from it (see the module docstring)."""
        if population not in self._cache:
            key = self._memo_key(population)
            result = _SIM_MEMO.get(key) if key is not None else None
            if result is None:
                result = self._run(
                    population,
                    stop_at_qos_failure=population > 1 and self._stoppable,
                )
                if key is not None:
                    _SIM_MEMO[key] = result
            self._cache[population] = result
        return self._cache[population]

    def _run(
        self, population: int, stop_at_qos_failure: bool = False
    ) -> SimResult:
        return ServerSimulator(
            self._platform,
            self._workload,
            population=population,
            config=self._config,
            disk_model=self._disk_model,
            memory_slowdown=self._memory_slowdown,
        ).run(stop_at_qos_failure=stop_at_qos_failure)

    def _max_population(self) -> int:
        cap = self._workload.profile.max_population
        return min(cap, _MAX_POPULATION) if cap is not None else _MAX_POPULATION

    def _initial_population(self) -> int:
        """Analytic warm start: population that saturates the bottleneck.

        Memoized per (platform, profile): sweeps over the same pair --
        or over same-family platform variants sharing the cap -- reuse
        the estimate instead of rebuilding the analytic model.
        """
        try:
            key: Optional[tuple] = (self._platform, self._workload.profile)
            hash(key)
        except TypeError:  # pragma: no cover - defensive
            key = None
        if key is not None and key in _ESTIMATE_MEMO:
            return _ESTIMATE_MEMO[key]
        model = AnalyticServerModel(self._platform, self._workload)
        saturation = model.saturation_rps() / 1000.0  # per ms
        demands = sum(d for d, _ in model.service_demands())
        think = self._workload.profile.think_time_ms
        estimate = int(saturation * (think + demands)) or 1
        initial = max(2, min(estimate, self._max_population()))
        if key is not None:
            _ESTIMATE_MEMO[key] = initial
        return initial

    def find_peak(self) -> SweepResult:
        """Run the adaptive search and return the best operating point."""
        population = self._initial_population()
        result = self._simulate(population)

        if not result.qos_met:
            # Shrink until QoS holds (or we bottom out at one client).
            low_pop, low = population, result
            while low_pop > 1 and not low.qos_met:
                low_pop = max(1, low_pop // 2)
                low = self._simulate(low_pop)
            if not low.qos_met:
                return SweepResult(best=low, population=low_pop,
                                   evaluations=len(self._cache))
            best_pop, best = low_pop, low
            fail_pop = low_pop * 2
        else:
            # Grow while QoS holds and throughput still improves.
            best_pop, best = population, result
            fail_pop = None
            max_pop = self._max_population()
            while best_pop < max_pop:
                nxt = min(best_pop * 2, max_pop)
                candidate = self._simulate(nxt)
                if not candidate.qos_met:
                    fail_pop = nxt
                    break
                gain = (candidate.throughput_rps - best.throughput_rps) / max(
                    best.throughput_rps, 1e-9
                )
                best_pop, best = nxt, candidate
                if gain < _MIN_GAIN:
                    return SweepResult(best=best, population=best_pop,
                                       evaluations=len(self._cache))

        # Binary-search the QoS boundary.
        if fail_pop is not None:
            lo, hi = best_pop, fail_pop
            while hi - lo > max(1, lo // 8):
                mid = (lo + hi) // 2
                candidate = self._simulate(mid)
                if candidate.qos_met:
                    lo = mid
                    if candidate.throughput_rps > best.throughput_rps:
                        best_pop, best = mid, candidate
                else:
                    hi = mid
        return SweepResult(best=best, population=best_pop,
                           evaluations=len(self._cache))
