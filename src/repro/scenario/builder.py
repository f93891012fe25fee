"""Fluent builder for :class:`~repro.scenario.spec.Scenario`.

The builder is sugar over the frozen spec dataclasses (the AsyncFlow
builder/schema split): every call records declarative state, and
:meth:`ScenarioBuilder.build` assembles the immutable
:class:`Scenario` and (by default) runs the aggregated validation.
Nothing here talks to the simulator -- a built scenario is pure data,
round-trippable through YAML (:mod:`repro.scenario.loader`).

Example::

    scenario = (
        ScenarioBuilder("surge-demo")
        .seed(3)
        .tier("edge", design="N1", servers=4)
        .benchmark("websearch")
        .open_loop(utilization=0.6, warmup_ms=2000, measure_ms=22000)
        .surge(multiplier=5.0, start_ms=6000, end_ms=11000)
        .overlay("protected", retry=RetrySpec(jitter=True),
                 overload=OverloadSpec(queue_cap="auto"))
        .build()
    )
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.scenario.spec import (
    ClosedLoopSpec,
    DiurnalSpec,
    FailslowSpec,
    FaultsSpec,
    FlashSpec,
    OpenLoopSpec,
    OverlaySpec,
    OverloadSpec,
    RedundancySpec,
    RegionSpec,
    RemoteMemorySpec,
    RequestDagSpec,
    RetrySpec,
    Scenario,
    StepSpec,
    SurgeSpec,
    TierSpec,
    TopologySpec,
    TracingSpec,
    TrafficSpec,
    WorkloadSpec,
)


class ScenarioBuilder:
    """Accumulates scenario state; ``build()`` freezes and validates."""

    def __init__(self, name: str):
        self._name = name
        self._description = ""
        self._seed = 1
        self._racks = 1
        self._tiers: List[TierSpec] = []
        self._benchmark: Optional[str] = None
        self._dag_name: Optional[str] = None
        self._dag_steps: List[StepSpec] = []
        self._dag_qos = (500.0, 0.95, 0.0)
        self._closed: Optional[ClosedLoopSpec] = None
        self._open_kwargs: Optional[dict] = None
        self._surge: Optional[SurgeSpec] = None
        self._diurnal: Optional[DiurnalSpec] = None
        self._regions: List[RegionSpec] = []
        self._overlays: List[OverlaySpec] = []

    # -- identity ----------------------------------------------------------

    def describe(self, description: str) -> "ScenarioBuilder":
        self._description = description
        return self

    def seed(self, seed: int) -> "ScenarioBuilder":
        self._seed = seed
        return self

    # -- topology ----------------------------------------------------------

    def racks(self, racks: int) -> "ScenarioBuilder":
        self._racks = racks
        return self

    def tier(
        self,
        name: str,
        *,
        platform: Optional[str] = None,
        design: Optional[str] = None,
        servers: int = 4,
        clients_per_server: int = 1,
        enclosure_size: Optional[int] = None,
        dispatch: Optional[str] = None,
        remote_memory: Union[RemoteMemorySpec, bool, None] = None,
        flash: Union[FlashSpec, bool, None] = None,
    ) -> "ScenarioBuilder":
        """Add a serving tier.  ``remote_memory=True``/``flash=True``
        attach the default blade/flash specs."""
        if remote_memory is True:
            remote_memory = RemoteMemorySpec()
        elif remote_memory is False:
            remote_memory = None
        if flash is True:
            flash = FlashSpec()
        elif flash is False:
            flash = None
        self._tiers.append(TierSpec(
            name=name,
            platform=platform,
            design=design,
            servers=servers,
            clients_per_server=clients_per_server,
            enclosure_size=enclosure_size,
            dispatch=dispatch,
            remote_memory=remote_memory,
            flash=flash,
        ))
        return self

    # -- workload ----------------------------------------------------------

    def benchmark(self, name: str) -> "ScenarioBuilder":
        self._benchmark = name
        return self

    def request_dag(
        self,
        name: str,
        *,
        qos_limit_ms: float = 500.0,
        qos_percentile: float = 0.95,
        think_time_ms: float = 0.0,
    ) -> "ScenarioBuilder":
        """Start an inline request DAG; add steps with :meth:`step`."""
        self._dag_name = name
        self._dag_steps = []
        self._dag_qos = (qos_limit_ms, qos_percentile, think_time_ms)
        return self

    def step(self, name: str, **demands) -> "ScenarioBuilder":
        """Add a DAG step; keyword args are :class:`StepSpec` fields."""
        if self._dag_name is None:
            raise ValueError("call request_dag() before step()")
        after = demands.pop("after", ())
        self._dag_steps.append(
            StepSpec(name=name, after=tuple(after), **demands))
        return self

    # -- traffic -----------------------------------------------------------

    def closed_loop(
        self, warmup_requests: int = 500, measure_requests: int = 4000
    ) -> "ScenarioBuilder":
        self._closed = ClosedLoopSpec(
            warmup_requests=warmup_requests,
            measure_requests=measure_requests,
        )
        return self

    def open_loop(
        self,
        *,
        base_rate_rps: Optional[float] = None,
        utilization: Optional[float] = None,
        warmup_ms: float = 2000.0,
        measure_ms: float = 20_000.0,
        user_request_rate_rps: float = 0.002,
    ) -> "ScenarioBuilder":
        self._open_kwargs = dict(
            base_rate_rps=base_rate_rps,
            utilization=utilization,
            warmup_ms=warmup_ms,
            measure_ms=measure_ms,
            user_request_rate_rps=user_request_rate_rps,
        )
        return self

    def surge(
        self, multiplier: float = 5.0,
        start_ms: float = 0.0, end_ms: float = 0.0,
    ) -> "ScenarioBuilder":
        self._surge = SurgeSpec(
            multiplier=multiplier, start_ms=start_ms, end_ms=end_ms)
        return self

    def diurnal(
        self,
        *,
        peak_to_trough: float = 3.0,
        peak_hour: float = 20.0,
        weekend_factor: float = 1.0,
        sim_ms_per_hour: float = 4000.0,
        flash_crowd_hour: Optional[int] = None,
        flash_crowd_multiplier: float = 3.0,
    ) -> "ScenarioBuilder":
        self._diurnal = DiurnalSpec(
            peak_to_trough=peak_to_trough,
            peak_hour=peak_hour,
            weekend_factor=weekend_factor,
            sim_ms_per_hour=sim_ms_per_hour,
            flash_crowd_hour=flash_crowd_hour,
            flash_crowd_multiplier=flash_crowd_multiplier,
        )
        return self

    def region(
        self, name: str, weight: float = 1.0, peak_hour_offset: float = 0.0
    ) -> "ScenarioBuilder":
        self._regions.append(RegionSpec(
            name=name, weight=weight, peak_hour_offset=peak_hour_offset))
        return self

    # -- overlays ----------------------------------------------------------

    def overlay(
        self,
        name: str,
        *,
        retry: Optional[RetrySpec] = None,
        faults: Optional[FaultsSpec] = None,
        overload: Optional[OverloadSpec] = None,
        failslow: Optional[FailslowSpec] = None,
        redundancy: Optional[RedundancySpec] = None,
        tracing: Optional[TracingSpec] = None,
    ) -> "ScenarioBuilder":
        self._overlays.append(OverlaySpec(
            name=name, retry=retry, faults=faults, overload=overload,
            failslow=failslow, redundancy=redundancy, tracing=tracing))
        return self

    # -- assembly ----------------------------------------------------------

    def build(self, validate: bool = True) -> Scenario:
        """Freeze the scenario; with ``validate`` (default), raise one
        :class:`~repro.scenario.errors.ScenarioValidationError`
        aggregating every problem."""
        dag = None
        if self._dag_name is not None:
            limit, percentile, think = self._dag_qos
            dag = RequestDagSpec(
                name=self._dag_name,
                steps=tuple(self._dag_steps),
                qos_limit_ms=limit,
                qos_percentile=percentile,
                think_time_ms=think,
            )
        open_loop = None
        if self._open_kwargs is not None:
            open_loop = OpenLoopSpec(
                surge=self._surge,
                diurnal=self._diurnal,
                regions=tuple(self._regions),
                **self._open_kwargs,
            )
        scenario = Scenario(
            name=self._name,
            description=self._description,
            seed=self._seed,
            topology=TopologySpec(
                tiers=tuple(self._tiers), racks=self._racks),
            workload=WorkloadSpec(benchmark=self._benchmark, dag=dag),
            traffic=TrafficSpec(closed_loop=self._closed,
                                open_loop=open_loop),
            overlays=tuple(self._overlays) or (OverlaySpec(),),
        )
        if validate:
            scenario.check()
        return scenario
