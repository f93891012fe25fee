"""Typed, validated scenario schemas (the declarative layer).

A :class:`Scenario` is pure data: a topology of server tiers with
platform/design references, a workload (a named benchmark or an inline
request DAG with per-step resource demands), a traffic program (closed
loop, or open loop with a flash-crowd surge or a diurnal day), and a
set of *overlays* -- named arms that layer faults, fail-slow drift,
redundancy, retry policy, overload protection, and tracing on top of
the same topology.  The compiler (:mod:`repro.scenario.compiler`)
lowers every tier onto one cluster simulator, which runs the cluster
engine (:mod:`repro.cluster.engine`).

Validation never stops at the first problem: every spec type appends
:class:`~repro.scenario.errors.ValidationIssue` records with precise
paths (``topology.tiers[2].platform: unknown 'n3'``) and
:meth:`Scenario.validate` returns them all; :meth:`Scenario.check`
raises a single :class:`~repro.scenario.errors.ScenarioValidationError`
aggregating the lot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.scenario import registry
from repro.scenario.errors import (
    ScenarioValidationError,
    ValidationIssue,
    join_path,
)

Issues = List[ValidationIssue]


def _is_num(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(
    issues: Issues, path: str, ok: bool, message: str
) -> bool:
    if not ok:
        issues.append(ValidationIssue(path, message))
    return ok


# ---------------------------------------------------------------------------
# Workload: named benchmark or inline request DAG
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepSpec:
    """One step of a request DAG with its resource demands.

    Demands use the repo's reference units (see
    :class:`repro.workloads.base.ResourceDemand`).  ``after`` lists the
    names of steps that must complete first; the DAG is validated for
    unknown references and cycles.
    """

    name: str
    cpu_ms_ref: float = 0.0
    mem_ms_ref: float = 0.0
    disk_ios: float = 0.0
    disk_bytes: float = 0.0
    net_bytes: float = 0.0
    disk_write: bool = False
    cpu_parallelism: int = 1
    after: Tuple[str, ...] = ()

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "name"),
                 isinstance(self.name, str) and bool(self.name),
                 "step name must be a non-empty string")
        for attr in ("cpu_ms_ref", "mem_ms_ref", "disk_ios", "disk_bytes",
                     "net_bytes"):
            value = getattr(self, attr)
            _require(issues, join_path(path, attr),
                     _is_num(value) and value >= 0,
                     f"must be a number >= 0, got {value!r}")
        _require(issues, join_path(path, "cpu_parallelism"),
                 _is_int(self.cpu_parallelism) and self.cpu_parallelism >= 1,
                 f"must be an integer >= 1, got {self.cpu_parallelism!r}")


@dataclass(frozen=True)
class RequestDagSpec:
    """An inline workload: a DAG of steps whose demands sum per request."""

    name: str
    steps: Tuple[StepSpec, ...] = ()
    qos_limit_ms: float = 500.0
    qos_percentile: float = 0.95
    think_time_ms: float = 0.0

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "name"),
                 isinstance(self.name, str) and bool(self.name),
                 "DAG name must be a non-empty string")
        _require(issues, join_path(path, "steps"),
                 len(self.steps) > 0, "a request DAG needs at least one step")
        _require(issues, join_path(path, "qos_limit_ms"),
                 _is_num(self.qos_limit_ms) and self.qos_limit_ms > 0,
                 f"must be a number > 0, got {self.qos_limit_ms!r}")
        _require(issues, join_path(path, "qos_percentile"),
                 _is_num(self.qos_percentile)
                 and 0.0 < self.qos_percentile < 1.0,
                 f"must be in (0, 1), got {self.qos_percentile!r}")
        _require(issues, join_path(path, "think_time_ms"),
                 _is_num(self.think_time_ms) and self.think_time_ms >= 0,
                 f"must be a number >= 0, got {self.think_time_ms!r}")
        names = {}
        for i, step in enumerate(self.steps):
            step_path = join_path(path, f"steps[{i}]")
            step.validate_into(step_path, issues)
            if isinstance(step.name, str) and step.name:
                if step.name in names:
                    issues.append(ValidationIssue(
                        join_path(step_path, "name"),
                        f"duplicate step name {step.name!r} "
                        f"(first at steps[{names[step.name]}])"))
                else:
                    names[step.name] = i
        # Unknown `after` references, then a cycle check over the rest.
        edges = {}
        for i, step in enumerate(self.steps):
            deps = []
            for dep in step.after:
                if dep not in names:
                    issues.append(ValidationIssue(
                        join_path(path, f"steps[{i}].after"),
                        f"unknown step {dep!r} "
                        f"(known: {sorted(names)})"))
                else:
                    deps.append(dep)
            if isinstance(step.name, str):
                edges[step.name] = deps
        remaining = dict(edges)
        while remaining:
            ready = [n for n, deps in remaining.items()
                     if not any(d in remaining for d in deps)]
            if not ready:
                issues.append(ValidationIssue(
                    join_path(path, "steps"),
                    f"dependency cycle among steps {sorted(remaining)}"))
                break
            for n in ready:
                del remaining[n]


@dataclass(frozen=True)
class WorkloadSpec:
    """Exactly one of ``benchmark`` (suite name) or ``dag`` (inline)."""

    benchmark: Optional[str] = None
    dag: Optional[RequestDagSpec] = None

    def validate_into(self, path: str, issues: Issues) -> None:
        if (self.benchmark is None) == (self.dag is None):
            issues.append(ValidationIssue(
                path, "exactly one of benchmark/dag must be set"))
            return
        if self.benchmark is not None:
            known = registry.benchmark_names()
            _require(issues, join_path(path, "benchmark"),
                     self.benchmark in known,
                     f"unknown benchmark {self.benchmark!r} (known: {known})")
        if self.dag is not None:
            self.dag.validate_into(join_path(path, "dag"), issues)


# ---------------------------------------------------------------------------
# Topology: racks of server tiers with platform refs and attached blades
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemoteMemorySpec:
    """A shared remote-memory blade behind a tier (the N2 disaggregation)."""

    local_fraction: float = 0.25
    trace_length: int = 200_000

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "local_fraction"),
                 _is_num(self.local_fraction)
                 and 0.0 < self.local_fraction <= 1.0,
                 f"must be in (0, 1], got {self.local_fraction!r}")
        _require(issues, join_path(path, "trace_length"),
                 _is_int(self.trace_length) and self.trace_length > 0,
                 f"must be an integer > 0, got {self.trace_length!r}")


@dataclass(frozen=True)
class FlashSpec:
    """A flash/SAN disk configuration in front of the tier's disks."""

    configuration: str = "remote-laptop+flash"

    def validate_into(self, path: str, issues: Issues) -> None:
        known = registry.disk_configuration_names()
        _require(issues, join_path(path, "configuration"),
                 self.configuration in known,
                 f"unknown disk configuration {self.configuration!r} "
                 f"(known: {known})")


@dataclass(frozen=True)
class TierSpec:
    """One serving tier: a balancer fronting ``servers`` identical nodes.

    Exactly one of ``platform`` (raw catalog platform) or ``design``
    (priced design: any platform name as a baseline design, or the
    unified ``N1``/``N2``) names the hardware.  ``enclosure_size`` is
    the fault blast radius: the servers one enclosure fan or PSU fault
    degrades (default: the whole tier).
    """

    name: str
    platform: Optional[str] = None
    design: Optional[str] = None
    servers: int = 4
    clients_per_server: int = 1
    enclosure_size: Optional[int] = None
    dispatch: Optional[str] = None
    remote_memory: Optional[RemoteMemorySpec] = None
    flash: Optional[FlashSpec] = None

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "name"),
                 isinstance(self.name, str) and bool(self.name),
                 "tier name must be a non-empty string")
        if (self.platform is None) == (self.design is None):
            issues.append(ValidationIssue(
                path, "exactly one of platform/design must be set"))
        if self.platform is not None:
            from repro.platforms.catalog import platform_names

            known = platform_names()
            _require(issues, join_path(path, "platform"),
                     self.platform in known,
                     f"unknown {self.platform!r} (known: {known})")
        if self.design is not None:
            known = registry.design_names()
            _require(issues, join_path(path, "design"),
                     self.design in known,
                     f"unknown {self.design!r} (known: {known})")
        _require(issues, join_path(path, "servers"),
                 _is_int(self.servers) and self.servers >= 1,
                 f"must be an integer >= 1, got {self.servers!r}")
        _require(issues, join_path(path, "clients_per_server"),
                 _is_int(self.clients_per_server)
                 and self.clients_per_server >= 1,
                 f"must be an integer >= 1, got {self.clients_per_server!r}")
        if self.enclosure_size is not None:
            _require(issues, join_path(path, "enclosure_size"),
                     _is_int(self.enclosure_size) and self.enclosure_size >= 1,
                     f"must be an integer >= 1, got {self.enclosure_size!r}")
        if self.dispatch is not None:
            _require(issues, join_path(path, "dispatch"),
                     self.dispatch in registry.DISPATCH,
                     f"unknown dispatch {self.dispatch!r} "
                     f"(known: {list(registry.DISPATCH)})")
        if self.remote_memory is not None:
            self.remote_memory.validate_into(
                join_path(path, "remote_memory"), issues)
        if self.flash is not None:
            self.flash.validate_into(join_path(path, "flash"), issues)


@dataclass(frozen=True)
class TopologySpec:
    """``racks`` independent copies of the listed tiers."""

    tiers: Tuple[TierSpec, ...] = ()
    racks: int = 1

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "racks"),
                 _is_int(self.racks) and self.racks >= 1,
                 f"must be an integer >= 1, got {self.racks!r}")
        _require(issues, join_path(path, "tiers"),
                 len(self.tiers) > 0, "at least one tier is required")
        seen = {}
        for i, tier in enumerate(self.tiers):
            tier_path = join_path(path, f"tiers[{i}]")
            tier.validate_into(tier_path, issues)
            if isinstance(tier.name, str) and tier.name:
                if tier.name in seen:
                    issues.append(ValidationIssue(
                        join_path(tier_path, "name"),
                        f"duplicate tier name {tier.name!r} "
                        f"(first at tiers[{seen[tier.name]}])"))
                else:
                    seen[tier.name] = i


# ---------------------------------------------------------------------------
# Traffic programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedLoopSpec:
    """Closed-loop client pool (request counts, not wall-clock windows)."""

    warmup_requests: int = 500
    measure_requests: int = 4000

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "warmup_requests"),
                 _is_int(self.warmup_requests) and self.warmup_requests >= 0,
                 f"must be an integer >= 0, got {self.warmup_requests!r}")
        _require(issues, join_path(path, "measure_requests"),
                 _is_int(self.measure_requests) and self.measure_requests >= 1,
                 f"must be an integer >= 1, got {self.measure_requests!r}")


@dataclass(frozen=True)
class SurgeSpec:
    """A flash-crowd window inside the open-loop measurement."""

    multiplier: float = 5.0
    start_ms: float = 0.0
    end_ms: float = 0.0

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "multiplier"),
                 _is_num(self.multiplier) and self.multiplier >= 1.0,
                 f"must be a number >= 1, got {self.multiplier!r}")
        window_ok = (_is_num(self.start_ms) and _is_num(self.end_ms)
                     and 0 <= self.start_ms <= self.end_ms)
        _require(issues, path, window_ok,
                 f"surge window must satisfy 0 <= start_ms <= end_ms, "
                 f"got [{self.start_ms!r}, {self.end_ms!r})")


@dataclass(frozen=True)
class DiurnalSpec:
    """A full simulated day: 24 hourly segments of a diurnal curve.

    The curve comes from :class:`repro.cluster.diurnal.DiurnalLoadModel`
    (peak-normalized); each hour compiles to one open-loop segment of
    ``sim_ms_per_hour`` simulated milliseconds at that hour's rate.  An
    optional flash crowd multiplies the rate inside the middle half of
    one hour's segment (a viral spike riding the diurnal peak).
    """

    peak_to_trough: float = 3.0
    peak_hour: float = 20.0
    weekend_factor: float = 1.0
    sim_ms_per_hour: float = 4000.0
    flash_crowd_hour: Optional[int] = None
    flash_crowd_multiplier: float = 3.0

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "peak_to_trough"),
                 _is_num(self.peak_to_trough) and self.peak_to_trough >= 1.0,
                 f"must be a number >= 1, got {self.peak_to_trough!r}")
        _require(issues, join_path(path, "peak_hour"),
                 _is_num(self.peak_hour) and 0 <= self.peak_hour < 24,
                 f"must be in [0, 24), got {self.peak_hour!r}")
        _require(issues, join_path(path, "weekend_factor"),
                 _is_num(self.weekend_factor)
                 and 0 < self.weekend_factor <= 1.0,
                 f"must be in (0, 1], got {self.weekend_factor!r}")
        _require(issues, join_path(path, "sim_ms_per_hour"),
                 _is_num(self.sim_ms_per_hour) and self.sim_ms_per_hour > 0,
                 f"must be a number > 0, got {self.sim_ms_per_hour!r}")
        if self.flash_crowd_hour is not None:
            _require(issues, join_path(path, "flash_crowd_hour"),
                     _is_int(self.flash_crowd_hour)
                     and 0 <= self.flash_crowd_hour < 24,
                     f"must be an hour in [0, 24), "
                     f"got {self.flash_crowd_hour!r}")
        _require(issues, join_path(path, "flash_crowd_multiplier"),
                 _is_num(self.flash_crowd_multiplier)
                 and self.flash_crowd_multiplier >= 1.0,
                 f"must be a number >= 1, got {self.flash_crowd_multiplier!r}")


@dataclass(frozen=True)
class RegionSpec:
    """A regional share of traffic with a time-zone-shifted diurnal peak."""

    name: str
    weight: float = 1.0
    peak_hour_offset: float = 0.0

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "name"),
                 isinstance(self.name, str) and bool(self.name),
                 "region name must be a non-empty string")
        _require(issues, join_path(path, "weight"),
                 _is_num(self.weight) and self.weight > 0,
                 f"must be a number > 0, got {self.weight!r}")
        _require(issues, join_path(path, "peak_hour_offset"),
                 _is_num(self.peak_hour_offset)
                 and -24 < self.peak_hour_offset < 24,
                 f"must be in (-24, 24), got {self.peak_hour_offset!r}")


@dataclass(frozen=True)
class OpenLoopSpec:
    """Open-loop Poisson arrivals against each rack's tier.

    The (peak) per-rack rate is either ``base_rate_rps`` (absolute) or
    ``utilization`` x the tier's analytic per-server capacity x servers.
    At most one of ``surge`` (flash crowd over a flat base) and
    ``diurnal`` (a full day) shapes the program.  ``regions`` blend
    time-zone-shifted copies of the diurnal curve by ``weight`` --
    they shape the rate, not the run count.
    """

    base_rate_rps: Optional[float] = None
    utilization: Optional[float] = None
    surge: Optional[SurgeSpec] = None
    diurnal: Optional[DiurnalSpec] = None
    regions: Tuple[RegionSpec, ...] = ()
    warmup_ms: float = 2000.0
    measure_ms: float = 20_000.0
    #: Mean per-user request rate, used only to report the modeled user
    #: population a scenario's aggregate peak rate stands for.
    user_request_rate_rps: float = 0.002

    def validate_into(self, path: str, issues: Issues) -> None:
        if (self.base_rate_rps is None) == (self.utilization is None):
            issues.append(ValidationIssue(
                path, "exactly one of base_rate_rps/utilization must be set"))
        if self.base_rate_rps is not None:
            _require(issues, join_path(path, "base_rate_rps"),
                     _is_num(self.base_rate_rps) and self.base_rate_rps > 0,
                     f"must be a number > 0, got {self.base_rate_rps!r}")
        if self.utilization is not None:
            _require(issues, join_path(path, "utilization"),
                     _is_num(self.utilization)
                     and 0 < self.utilization,
                     f"must be a number > 0, got {self.utilization!r}")
        if self.surge is not None and self.diurnal is not None:
            issues.append(ValidationIssue(
                path, "surge and diurnal are mutually exclusive "
                      "(use diurnal.flash_crowd_hour for a spike in a day)"))
        if self.surge is not None:
            self.surge.validate_into(join_path(path, "surge"), issues)
            if (_is_num(self.surge.end_ms) and _is_num(self.measure_ms)
                    and _is_num(self.warmup_ms)
                    and self.surge.end_ms > self.warmup_ms + self.measure_ms):
                issues.append(ValidationIssue(
                    join_path(path, "surge.end_ms"),
                    f"surge ends at {self.surge.end_ms!r} ms, after the "
                    f"run ends at {self.warmup_ms + self.measure_ms!r} ms"))
        if self.diurnal is not None:
            self.diurnal.validate_into(join_path(path, "diurnal"), issues)
        if self.regions and self.diurnal is None:
            issues.append(ValidationIssue(
                join_path(path, "regions"),
                "regions blend time-zone-shifted diurnal curves; "
                "they require diurnal"))
        seen = {}
        for i, region in enumerate(self.regions):
            region_path = join_path(path, f"regions[{i}]")
            region.validate_into(region_path, issues)
            if isinstance(region.name, str) and region.name:
                if region.name in seen:
                    issues.append(ValidationIssue(
                        join_path(region_path, "name"),
                        f"duplicate region name {region.name!r}"))
                else:
                    seen[region.name] = i
        _require(issues, join_path(path, "warmup_ms"),
                 _is_num(self.warmup_ms) and self.warmup_ms >= 0,
                 f"must be a number >= 0, got {self.warmup_ms!r}")
        _require(issues, join_path(path, "measure_ms"),
                 _is_num(self.measure_ms) and self.measure_ms > 0,
                 f"must be a number > 0, got {self.measure_ms!r}")
        _require(issues, join_path(path, "user_request_rate_rps"),
                 _is_num(self.user_request_rate_rps)
                 and self.user_request_rate_rps > 0,
                 f"must be a number > 0, got {self.user_request_rate_rps!r}")


@dataclass(frozen=True)
class TrafficSpec:
    """Exactly one of ``closed_loop``/``open_loop``."""

    closed_loop: Optional[ClosedLoopSpec] = None
    open_loop: Optional[OpenLoopSpec] = None

    def validate_into(self, path: str, issues: Issues) -> None:
        if (self.closed_loop is None) == (self.open_loop is None):
            issues.append(ValidationIssue(
                path, "exactly one of closed_loop/open_loop must be set"))
            return
        if self.closed_loop is not None:
            self.closed_loop.validate_into(
                join_path(path, "closed_loop"), issues)
        if self.open_loop is not None:
            self.open_loop.validate_into(join_path(path, "open_loop"), issues)


# ---------------------------------------------------------------------------
# Overlays: faults / fail-slow / redundancy / protection / tracing arms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetrySpec:
    """Client timeout/retry/hedging policy (degradation stack)."""

    timeout_ms: float = 1000.0
    max_retries: int = 2
    backoff_base_ms: float = 10.0
    backoff_factor: float = 2.0
    hedge_after_ms: Optional[float] = None
    jitter: bool = False

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "timeout_ms"),
                 _is_num(self.timeout_ms) and self.timeout_ms > 0,
                 f"must be a number > 0, got {self.timeout_ms!r}")
        _require(issues, join_path(path, "max_retries"),
                 _is_int(self.max_retries) and self.max_retries >= 0,
                 f"must be an integer >= 0, got {self.max_retries!r}")
        _require(issues, join_path(path, "backoff_base_ms"),
                 _is_num(self.backoff_base_ms) and self.backoff_base_ms >= 0,
                 f"must be a number >= 0, got {self.backoff_base_ms!r}")
        _require(issues, join_path(path, "backoff_factor"),
                 _is_num(self.backoff_factor) and self.backoff_factor >= 1.0,
                 f"must be a number >= 1, got {self.backoff_factor!r}")
        if self.hedge_after_ms is not None:
            _require(issues, join_path(path, "hedge_after_ms"),
                     _is_num(self.hedge_after_ms) and self.hedge_after_ms > 0,
                     f"must be a number > 0, got {self.hedge_after_ms!r}")


@dataclass(frozen=True)
class FaultsSpec:
    """Stochastic fault injection from a named profile."""

    profile: str = "stress"
    fault_seed: int = 7

    def validate_into(self, path: str, issues: Issues) -> None:
        known = registry.fault_profile_names()
        _require(issues, join_path(path, "profile"),
                 self.profile in known,
                 f"unknown fault profile {self.profile!r} (known: {known})")
        _require(issues, join_path(path, "fault_seed"),
                 _is_int(self.fault_seed),
                 f"must be an integer, got {self.fault_seed!r}")


@dataclass(frozen=True)
class OverloadSpec:
    """Overload protection: the full stack, or telemetry-only.

    ``protected=False`` compiles to ``OverloadPolicy.unprotected()``
    (the naive baseline).  ``queue_cap`` is an integer, ``None`` for
    unbounded queues, or ``"auto"``: half the retry-timeout's worth of
    per-server capacity (the EXT-10 sizing rule; requires open-loop
    traffic so capacity is computed anyway).
    """

    protected: bool = True
    queue_cap: Union[int, str, None] = "auto"

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "protected"),
                 isinstance(self.protected, bool),
                 f"must be a boolean, got {self.protected!r}")
        if isinstance(self.queue_cap, str):
            _require(issues, join_path(path, "queue_cap"),
                     self.queue_cap == "auto",
                     f"must be an integer, null, or 'auto', "
                     f"got {self.queue_cap!r}")
        elif self.queue_cap is not None:
            _require(issues, join_path(path, "queue_cap"),
                     _is_int(self.queue_cap) and self.queue_cap >= 1,
                     f"must be an integer >= 1, null, or 'auto', "
                     f"got {self.queue_cap!r}")


@dataclass(frozen=True)
class FailslowSpec:
    """One gray-failure drift: a server's resource steps to ``factor`` x."""

    server: int = 0
    factor: float = 10.0
    resource: str = "cpu"
    at_ms: float = 0.0
    detection: bool = False

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "server"),
                 _is_int(self.server) and self.server >= 0,
                 f"must be an integer >= 0, got {self.server!r}")
        _require(issues, join_path(path, "factor"),
                 _is_num(self.factor) and self.factor >= 1.0,
                 f"must be a number >= 1, got {self.factor!r}")
        _require(issues, join_path(path, "resource"),
                 self.resource in registry.FAILSLOW_RESOURCES,
                 f"unknown resource {self.resource!r} "
                 f"(known: {list(registry.FAILSLOW_RESOURCES)})")
        _require(issues, join_path(path, "at_ms"),
                 _is_num(self.at_ms) and self.at_ms >= 0,
                 f"must be a number >= 0, got {self.at_ms!r}")


@dataclass(frozen=True)
class RedundancySpec:
    """Remote-memory redundancy for tiers with a memory blade."""

    mode: str = "replica"
    blades: int = 2
    copies: int = 2
    data_shards: int = 4
    pages_per_server: int = 256

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "mode"),
                 self.mode in registry.REDUNDANCY_MODES,
                 f"unknown mode {self.mode!r} "
                 f"(known: {list(registry.REDUNDANCY_MODES)})")
        _require(issues, join_path(path, "blades"),
                 _is_int(self.blades) and self.blades >= 1,
                 f"must be an integer >= 1, got {self.blades!r}")
        _require(issues, join_path(path, "copies"),
                 _is_int(self.copies) and self.copies >= 2,
                 f"must be an integer >= 2, got {self.copies!r}")
        _require(issues, join_path(path, "data_shards"),
                 _is_int(self.data_shards) and self.data_shards >= 2,
                 f"must be an integer >= 2, got {self.data_shards!r}")
        _require(issues, join_path(path, "pages_per_server"),
                 _is_int(self.pages_per_server) and self.pages_per_server >= 1,
                 f"must be an integer >= 1, got {self.pages_per_server!r}")
        if self.mode == "replica" and _is_int(self.blades) \
                and _is_int(self.copies) and self.blades < self.copies:
            issues.append(ValidationIssue(
                join_path(path, "blades"),
                f"replica mode with {self.copies} copies needs >= "
                f"{self.copies} blades, got {self.blades}"))
        if self.mode == "parity" and _is_int(self.blades) \
                and _is_int(self.data_shards) \
                and self.blades <= self.data_shards:
            issues.append(ValidationIssue(
                join_path(path, "blades"),
                f"parity mode with {self.data_shards} data shards needs >= "
                f"{self.data_shards + 1} blades, got {self.blades}"))


@dataclass(frozen=True)
class TracingSpec:
    """Per-request distributed tracing (deterministic sampling)."""

    sample_rate: float = 1.0
    trace_seed: int = 17

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "sample_rate"),
                 _is_num(self.sample_rate) and 0 < self.sample_rate <= 1.0,
                 f"must be in (0, 1], got {self.sample_rate!r}")
        _require(issues, join_path(path, "trace_seed"),
                 _is_int(self.trace_seed),
                 f"must be an integer, got {self.trace_seed!r}")


@dataclass(frozen=True)
class OverlaySpec:
    """One named arm: overlays compose on the same topology/traffic."""

    name: str = "baseline"
    retry: Optional[RetrySpec] = None
    faults: Optional[FaultsSpec] = None
    overload: Optional[OverloadSpec] = None
    failslow: Optional[FailslowSpec] = None
    redundancy: Optional[RedundancySpec] = None
    tracing: Optional[TracingSpec] = None

    def validate_into(self, path: str, issues: Issues) -> None:
        _require(issues, join_path(path, "name"),
                 isinstance(self.name, str) and bool(self.name),
                 "overlay name must be a non-empty string")
        for attr in ("retry", "faults", "overload", "failslow",
                     "redundancy", "tracing"):
            value = getattr(self, attr)
            if value is not None:
                value.validate_into(join_path(path, attr), issues)


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A complete declarative experiment: topology x workload x traffic
    x overlays.  Pure data; lower it with
    :func:`repro.scenario.compiler.compile_scenario`."""

    name: str
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    overlays: Tuple[OverlaySpec, ...] = (OverlaySpec(),)
    seed: int = 1
    description: str = ""

    def validate(self) -> Issues:
        """Every problem in the scenario, with precise paths.  Never
        raises and never stops early; an empty list means valid."""
        issues: Issues = []
        _require(issues, "name",
                 isinstance(self.name, str) and bool(self.name),
                 "scenario name must be a non-empty string")
        _require(issues, "seed", _is_int(self.seed),
                 f"must be an integer, got {self.seed!r}")
        self.topology.validate_into("topology", issues)
        self.workload.validate_into("workload", issues)
        self.traffic.validate_into("traffic", issues)
        _require(issues, "overlays", len(self.overlays) > 0,
                 "at least one overlay is required")
        seen = {}
        for i, overlay in enumerate(self.overlays):
            overlay_path = f"overlays[{i}]"
            overlay.validate_into(overlay_path, issues)
            if isinstance(overlay.name, str) and overlay.name:
                if overlay.name in seen:
                    issues.append(ValidationIssue(
                        join_path(overlay_path, "name"),
                        f"duplicate overlay name {overlay.name!r}"))
                else:
                    seen[overlay.name] = i
        self._validate_cross(issues)
        return issues

    def _validate_cross(self, issues: Issues) -> None:
        """Constraints spanning topology x workload x traffic x overlays."""
        inline_dag = self.workload.dag is not None
        for i, tier in enumerate(self.topology.tiers):
            tier_path = f"topology.tiers[{i}]"
            if inline_dag and tier.remote_memory is not None:
                issues.append(ValidationIssue(
                    join_path(tier_path, "remote_memory"),
                    "remote-memory blades need a named benchmark workload "
                    "(the paging trace is benchmark-specific)"))
            if inline_dag and tier.flash is not None:
                issues.append(ValidationIssue(
                    join_path(tier_path, "flash"),
                    "flash disk configurations need a named benchmark "
                    "workload (the cache model is benchmark-specific)"))
        # A fail-slow overlay drifts the same server index in every tier.
        smallest = min((t for t in self.topology.tiers if _is_int(t.servers)),
                       key=lambda t: t.servers, default=None)
        for j, overlay in enumerate(self.overlays):
            if overlay.redundancy is not None and not any(
                    t.remote_memory is not None
                    for t in self.topology.tiers):
                issues.append(ValidationIssue(
                    f"overlays[{j}].redundancy",
                    "no tier has a remote_memory blade to protect"))
            failslow = overlay.failslow
            if (failslow is not None and _is_int(failslow.server)
                    and smallest is not None
                    and failslow.server >= smallest.servers):
                issues.append(ValidationIssue(
                    f"overlays[{j}].failslow.server",
                    f"server index {failslow.server} is out of range for "
                    f"tier {smallest.name!r} ({smallest.servers} servers)"))
            if (overlay.overload is not None
                    and overlay.overload.protected
                    and overlay.overload.queue_cap == "auto"
                    and self.traffic.open_loop is None):
                issues.append(ValidationIssue(
                    f"overlays[{j}].overload.queue_cap",
                    "'auto' sizing needs open-loop traffic (it is derived "
                    "from the analytic capacity); give an integer"))

    def check(self) -> "Scenario":
        """Validate; raise one aggregated error if anything is wrong."""
        issues = self.validate()
        if issues:
            raise ScenarioValidationError(issues)
        return self
