"""Multi-server cluster simulation with a front-end load balancer.

Validates the paper's simplifying assumption that "cluster-level
performance can be approximated by the aggregation of single-machine
benchmarks" (section 4, Metrics & models): a cluster of ``n`` simulated
servers behind a dispatcher should sustain close to ``n`` times the
single-server QoS-constrained throughput, with round-robin slightly worse
than least-outstanding dispatch at the tail.

The balancer also carries the repository's graceful-degradation stack
(the paper: "high-availability ... moved into the application stack"):

- *health checking*: only servers whose full serving path (server, disk,
  NIC, enclosure PSU) is up receive new requests; if nothing is healthy
  the dispatcher backs off and re-probes instead of crashing;
- *timeouts and bounded retry*: with a :class:`RetryPolicy`, a request
  that does not complete within the timeout is re-dispatched with
  exponential backoff (optionally full-jitter), up to ``max_retries``
  extra attempts;
- *hedged dispatch*: optionally, a duplicate attempt is sent to a second
  server when the first is slow, and the first completion wins;
- *degraded modes*: a down memory blade switches every attached server
  to local-memory-only operation (capacity misses page in from disk); a
  down flash cache drops to the raw-disk path.

Faults come from stochastic per-component MTBF/MTTR processes
(:class:`repro.faults.FaultInjector`), fully deterministic per seed.

On top of that sits the *overload-protection* stack
(:mod:`repro.cluster.overload`), enabled by passing an
:class:`~repro.cluster.overload.OverloadPolicy`:

- bounded per-server queues with reject-on-full dispatch;
- deadline-based shedding: an attempt whose timeout has expired (or
  provably cannot be met) is dropped the moment CPU service would
  start, instead of being served uselessly;
- admission control at the dispatcher (token-bucket rate limit plus
  adaptive shedding on observed queueing delay);
- a shared retry-token budget that caps retry amplification, and
  per-server circuit breakers that stop dispatch to a failing server;
- brownout mode: overloaded servers serve a reduced-demand variant.

The simulator runs *closed-loop* (a fixed client population with think
time, the paper's client-driver protocol) by default, or *open-loop*
(Poisson arrivals following a :class:`~repro.cluster.overload.SurgeSchedule`,
measured over a fixed time window) -- the regime where overload and
metastable retry storms actually occur.
"""

from __future__ import annotations

import enum
import hashlib
import pickle
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.cluster.engine import run_cohort
from repro.cluster.overload import OverloadPolicy, OverloadReport, SurgeSchedule
from repro.faults.failslow import DetectionPolicy, FailSlowPlan, FailSlowReport
from repro.faults.injector import FaultInjector
from repro.faults.model import ComponentType, FaultProfile
from repro.faults.recovery import (
    MaintenancePlan,
    RecoveryOrchestrator,
    RecoveryReport,
    RedundancyConfig,
)
from repro.flashcache.models import DiskSpec
from repro.memsim.remote_memory import RemoteMemoryModel
from repro.platforms.platform import Platform
from repro.simulator.telemetry import AvailabilityTracker
from repro.workloads.base import Workload

#: Dispatcher re-probe interval when no server is healthy, ms.
HEALTH_RECHECK_MS = 25.0

#: CPU service-time multiplier while the enclosure fan is down (thermal
#: throttling keeps the blades serving, slower, instead of tripping).
FAN_DEGRADED_THROTTLE = 1.5

#: Servers per enclosure-level failure domain (fan/PSU blast radius).
DEFAULT_ENCLOSURE_SIZE = 8


class Dispatch(enum.Enum):
    """Load-balancer policy."""

    ROUND_ROBIN = "round-robin"
    LEAST_OUTSTANDING = "least-outstanding"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class RetryPolicy:
    """Per-request timeout, bounded retry, and optional hedging."""

    #: Abandon an attempt that has not completed within this budget.
    timeout_ms: float = 1000.0
    #: Extra dispatch attempts after the first (0 = timeout only).
    max_retries: int = 2
    #: First retry delay; grows by ``backoff_factor`` per attempt.
    backoff_base_ms: float = 10.0
    backoff_factor: float = 2.0
    #: If set, send a duplicate attempt to another server once a request
    #: has been outstanding this long (first completion wins).
    hedge_after_ms: Optional[float] = None
    #: Full-jitter backoff: each delay is drawn uniformly from
    #: ``[0, deterministic backoff]`` using the simulation's seeded RNG,
    #: decorrelating the retry waves that synchronized timeouts would
    #: otherwise re-dispatch in lockstep.  Deterministic per seed.
    jitter: bool = False

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_ms < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")
        if self.hedge_after_ms is not None and self.hedge_after_ms <= 0:
            raise ValueError("hedge delay must be positive")

    def backoff_ms(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Delay before re-dispatching attempt number ``attempt + 1``.

        Without ``jitter`` (or without an ``rng``) the delay is the
        deterministic exponential ``base * factor**attempt``; with both,
        it is drawn uniformly from ``[0, that value]`` (full jitter).
        """
        ceiling = self.backoff_base_ms * self.backoff_factor ** max(attempt, 0)
        if self.jitter and rng is not None:
            return rng.uniform(0.0, ceiling)
        return ceiling


@dataclass
class FaultReport:
    """Fault- and retry-handling counters for one cluster run."""

    #: Injected hardware failures by component class value.
    injected_failures: Dict[str, int] = field(default_factory=dict)
    timeouts: int = 0
    retries: int = 0
    hedges: int = 0
    #: Hedged attempts whose RNG-picked target was quarantined by the
    #: gray-failure detector and were re-routed to a healthy peer.
    hedge_redirects: int = 0
    #: Hedge opportunities dropped because no server could accept the
    #: duplicate attempt (previously a silent return).
    hedges_dropped: int = 0
    #: Completions discarded because another attempt already won.
    wasted_completions: int = 0
    #: Requests abandoned after exhausting the retry budget.
    gave_up: int = 0
    #: In-flight requests voided by a server going down.
    lost_in_flight: int = 0
    #: Dispatcher stalls because no server was healthy.
    all_down_waits: int = 0
    #: Requests served in blade-down local-memory-only mode.
    degraded_requests: int = 0
    #: Requests served on the raw-disk path because flash was down.
    cache_bypassed_requests: int = 0
    #: Total time the memory blade spent down, ms.
    blade_downtime_ms: float = 0.0


@dataclass
class ClusterResult:
    """Aggregate measurements of one cluster run."""

    servers: int
    throughput_rps: float
    mean_response_ms: float
    qos_percentile_ms: float
    qos_met: bool
    per_server_rps: float
    #: Completions per server (dispatch balance check).
    server_completions: List[int]
    #: Fraction of measured requests exceeding the QoS limit.
    qos_violation_rate: float = 0.0
    #: Mean fraction of the run each server spent in rotation.
    availability: float = 1.0
    #: Fault-handling counters (None when the run injected no faults and
    #: used no retry/overload machinery).
    fault_report: Optional[FaultReport] = None
    #: New (first-attempt) requests offered per second in the window.
    offered_rps: float = 0.0
    #: Successfully served completions meeting the QoS limit, per second.
    goodput_rps: float = 0.0
    #: 99th-percentile response time of measured requests.
    p99_ms: float = 0.0
    #: Overload-protection counters and timelines (None for legacy
    #: closed-loop runs without an :class:`OverloadPolicy`).
    overload_report: Optional[OverloadReport] = None
    #: Gray-failure injection/detection summary (None when the run used
    #: neither a :class:`~repro.faults.failslow.FailSlowPlan` nor a
    #: :class:`~repro.faults.failslow.DetectionPolicy`).
    failslow_report: Optional[FailSlowReport] = None
    #: Redundancy/failover/rebuild and maintenance-drain summary (None
    #: when the run used neither a :class:`RedundancyConfig` nor a
    #: :class:`MaintenancePlan`).
    recovery_report: Optional[RecoveryReport] = None

    @property
    def imbalance(self) -> float:
        """Max/mean completions across servers (1.0 = perfectly even)."""
        if not self.server_completions:
            return 1.0
        mean = sum(self.server_completions) / len(self.server_completions)
        return max(self.server_completions) / mean if mean else 1.0

    def stream_digest(self) -> str:
        """SHA-256 over the behavioural measurements of the run.

        Excludes :attr:`failslow_report` -- the detector's own
        bookkeeping (evaluation counts, scores) necessarily differs
        between detection-on and detection-off runs even when the
        *served request stream* is identical -- and
        :attr:`recovery_report` for the same reason: the redundancy
        layer's audit and rebuild accounting exists only when enabled,
        while on a healthy fleet the served stream is bit-identical
        with redundancy on or off.  Everything the workload can observe
        (latencies, completions, fault/overload counters) is covered,
        so this is the equality the zero-RNG guarantee promises: on a
        healthy fleet, enabling scoring/ejection or replica/parity
        placement changes nothing the requests experienced.
        """
        payload = replace(self, failslow_report=None, recovery_report=None)
        return hashlib.sha256(
            pickle.dumps(payload, protocol=4)
        ).hexdigest()


class ClusterSimulator:
    """N identical servers behind a load balancer.

    Closed-loop (client pool with think time) by default; open-loop
    (Poisson arrivals on a :class:`SurgeSchedule`) when ``arrivals`` is
    given.
    """

    def __init__(
        self,
        platform: Platform,
        workload: Workload,
        servers: int,
        clients_per_server: int,
        dispatch: Dispatch = Dispatch.LEAST_OUTSTANDING,
        seed: int = 1,
        warmup_requests: int = 500,
        measure_requests: int = 4000,
        disk_spec: Optional[DiskSpec] = None,
        remote_memory: Optional[RemoteMemoryModel] = None,
        faults: Optional[FaultProfile] = None,
        fault_seed: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        enclosure_size: int = DEFAULT_ENCLOSURE_SIZE,
        overload: Optional[OverloadPolicy] = None,
        arrivals: Optional[SurgeSchedule] = None,
        warmup_ms: float = 2000.0,
        measure_ms: float = 20_000.0,
        tracer=None,
        metrics=None,
        failslow: Optional[FailSlowPlan] = None,
        failslow_detection: Optional[DetectionPolicy] = None,
        redundancy: Optional[RedundancyConfig] = None,
        maintenance: Optional[MaintenancePlan] = None,
    ):
        """``remote_memory`` attaches a shared memory blade: every request
        pays its expected remote-miss traffic on one blade-controller link
        shared by ALL servers in the cluster (the PCIe-contention effect
        the paper's trace methodology could not capture), plus the
        per-miss trap-handler CPU time on its own server.

        ``disk_spec`` (a frozen :class:`~repro.flashcache.models.DiskSpec`)
        gives each server a fresh disk model from ``disk_spec.build()``;
        without one, each server uses its platform's own disk.

        ``faults`` enables stochastic per-component fault injection from
        MTBF/MTTR processes (seeded by ``fault_seed``, default derived
        from ``seed``); servers, disks, NICs, the memory blade, flash
        caches, and enclosure fans/PSUs fail and repair over the run,
        with correlated blast radii for the shared components.

        ``retry`` adds per-request timeout, bounded retry with
        exponential backoff, and optional hedged dispatch.  ``faults``
        implies a default ``retry``: a server going down *loses* its
        in-flight requests, and clients recover via timeout.

        ``overload`` layers the protection stack of
        :mod:`repro.cluster.overload` over dispatch: bounded per-server
        queues, deadline shedding, admission control, a shared retry
        budget, per-server circuit breakers, and brownout mode.

        ``arrivals`` switches the simulator to open-loop mode: requests
        arrive in a Poisson stream whose rate follows the schedule
        (``clients_per_server`` is ignored), and measurement covers the
        fixed window ``[warmup_ms, warmup_ms + measure_ms)`` of simulated
        time.  Only requests *issued inside the window* are measured, so
        by construction goodput <= throughput <= offered load.  Shed or
        rejected requests are errors: they count toward offered load but
        never enter the latency distribution.

        ``tracer`` (a :class:`repro.obs.Tracer`) records a span tree for
        each sampled request -- queueing, CPU, memory, remote-memory
        link, flash/disk, NIC, retries, sheds -- without consuming any
        RNG state: traced and untraced runs of the same seed produce
        identical :class:`ClusterResult` values.  ``metrics`` (a
        :class:`repro.obs.MetricsRegistry`) collects labeled counters,
        response histograms, and per-server gauges alongside.

        ``failslow`` attaches gray-failure drift processes
        (:class:`~repro.faults.failslow.FailSlowPlan`): individual
        servers' CPU, NIC, remote-memory, and flash/disk service times
        degrade continuously as pure functions of simulated time,
        consuming no RNG state.  ``failslow_detection`` enables the
        peer-comparison detector
        (:class:`~repro.faults.failslow.DetectionPolicy`): per-server
        attempt latencies are scored against the fleet median, outliers
        are quarantined and probed back in, and (when the policy
        carries an adaptive-timeout sub-policy) the per-attempt timeout
        tracks the fleet's observed percentile instead of the static
        ``retry.timeout_ms``.  Detection requires ``retry`` so that
        timed-out attempts exist to observe.

        ``redundancy`` (a :class:`repro.faults.recovery.RedundancyConfig`)
        protects the remote working set with replica or parity placement
        across several enclosure blades behind the shared controller
        link: a scripted (or injected) blade failure re-routes remote
        reads to surviving copies instead of dropping to local paging,
        and repairs trigger background rebuild streams that contend with
        foreground traffic on the same blade-controller link under the
        config's :class:`~repro.faults.recovery.RebuildPolicy` throttle.  A
        ``policy=None`` config keeps today's unprotected degraded mode
        but still runs the scripted ``blade_faults`` storm.  None of
        this consumes RNG: with a healthy fleet (or ``redundancy=None``)
        the request stream is bit-identical either way.

        ``maintenance`` scripts drain windows (e.g. a rolling upgrade):
        a draining server finishes its in-flight work but receives no
        new dispatches or hedges, and the gray-failure detector (when
        present) drops it from the fleet median for the duration.

        :meth:`run` executes every configuration on the cohort
        request-lifecycle engine, :mod:`repro.cluster.engine`."""
        if servers <= 0 or clients_per_server <= 0:
            raise ValueError("servers and clients_per_server must be positive")
        if enclosure_size <= 0:
            raise ValueError("enclosure size must be positive")
        if arrivals is not None and (warmup_ms < 0 or measure_ms <= 0):
            raise ValueError("open-loop windows must be positive")
        self._platform = platform
        self._workload = workload
        self._servers = servers
        self._clients = clients_per_server * servers
        self._dispatch = dispatch
        self._seed = seed
        self._warmup = warmup_requests
        self._measure = measure_requests
        self._disk_spec = disk_spec
        self._remote_memory = remote_memory
        self._faults = faults
        self._fault_seed = (
            fault_seed if fault_seed is not None else seed ^ 0x5EED5EED
        )
        # Stochastic faults can strand in-flight requests, so they imply
        # a retry policy.
        self._retry = retry if retry is not None else (
            RetryPolicy() if faults is not None else None
        )
        self._enclosure_size = enclosure_size
        # Open-loop runs always carry overload telemetry, even with every
        # protection layer off (the naive baseline needs the timelines).
        self._overload = overload if overload is not None else (
            OverloadPolicy.unprotected() if arrivals is not None else None
        )
        self._arrivals = arrivals
        self._warmup_ms = warmup_ms
        self._measure_ms = measure_ms
        self._tracer = tracer
        self._metrics = metrics
        self._failslow = failslow
        self._failslow_detection = failslow_detection
        if redundancy is not None and remote_memory is None:
            raise ValueError(
                "redundancy protects the remote working set; pass "
                "remote_memory alongside it"
            )
        if maintenance is not None:
            bad = [w.server for w in maintenance.windows
                   if not 0 <= w.server < servers]
            if bad:
                raise ValueError(
                    f"maintenance server indices out of range: {bad}"
                )
        self._redundancy = redundancy
        self._maintenance = maintenance
        if failslow is not None:
            # Validate server indices up front (table() re-checks).
            failslow.table(servers)

    def run(self) -> ClusterResult:
        """Run the simulation on the cohort engine."""
        return run_cohort(self)

    def _inject_faults(
        self,
        clock,
        servers: list,
        blade_state: dict,
        report: FaultReport,
        recovery: Optional[RecoveryOrchestrator] = None,
    ) -> FaultInjector:
        """Register every hardware component with the fault injector.

        The one place that says which components can fail and what each
        failure does to a server: ``clock`` is the engine's scheduler (anything with ``now`` and
        ``schedule(delay_ms, callback)``), and ``servers`` are its
        per-server records, which carry ``index``, ``up``, ``epoch``,
        ``down_components``, ``outstanding``, ``cpu_throttle``,
        ``blade_down`` and ``disk_model``.  The injector's
        :class:`AvailabilityTracker` (``injector.tracker``) records
        each server's time in rotation.
        """
        assert self._faults is not None
        tracker = AvailabilityTracker()
        for index in range(len(servers)):
            tracker.observe(f"rotation/server{index}", 0.0, up=True)

        def take_down(index: int) -> None:
            server = servers[index]
            server.down_components += 1
            if server.down_components == 1:
                server.up = False
                tracker.observe(f"rotation/server{index}", clock.now, up=False)
                # In-flight work on a dead server is lost; clients
                # recover through their timeouts.
                server.epoch += 1
                report.lost_in_flight += server.outstanding
                server.outstanding = 0

        def bring_up(index: int) -> None:
            server = servers[index]
            server.down_components = max(server.down_components - 1, 0)
            if server.down_components == 0 and not server.up:
                server.up = True
                tracker.observe(f"rotation/server{index}", clock.now, up=True)

        injector = FaultInjector(
            clock, self._faults, seed=self._fault_seed, tracker=tracker
        )

        for index, server in enumerate(servers):
            for ctype, label in (
                (ComponentType.SERVER, "hw"),
                (ComponentType.DISK, "disk"),
                (ComponentType.NIC, "nic"),
            ):
                injector.register(
                    f"server{index}/{label}",
                    ctype,
                    on_fail=lambda i=index: take_down(i),
                    on_repair=lambda i=index: bring_up(i),
                )
            disk_model = server.disk_model
            if hasattr(disk_model, "fail") and hasattr(disk_model, "recover"):
                injector.register(
                    f"server{index}/flash",
                    ComponentType.FLASH_CACHE,
                    on_fail=disk_model.fail,
                    on_repair=disk_model.recover,
                )

        if self._remote_memory is not None and recovery is not None:
            # Redundant placement: each blade in the group is its own
            # fault domain; the orchestrator handles failover routing
            # and schedules the rebuild when the replacement arrives.
            for b in range(recovery.group.nblades):
                injector.register(
                    f"blade{b}",
                    ComponentType.MEMORY_BLADE,
                    on_fail=lambda bb=b: recovery.blade_failed(bb),
                    on_repair=lambda bb=b: recovery.blade_repaired(bb),
                )
        elif self._remote_memory is not None:
            # Correlated domain: one blade fault degrades every attached
            # server at once (local-memory-only mode), and the repair
            # restores them together.
            def blade_failed() -> None:
                blade_state["up"] = False
                blade_state["down_since"] = clock.now

            def blade_repaired() -> None:
                blade_state["up"] = True
                report.blade_downtime_ms += clock.now - blade_state["down_since"]

            domain = injector.register_domain("blade", ComponentType.MEMORY_BLADE)
            domain.attach(blade_failed, blade_repaired)
            for server in servers:
                def degrade(s=server) -> None:
                    s.blade_down = True

                def restore(s=server) -> None:
                    s.blade_down = False

                domain.attach(degrade, restore)

        for start in range(0, len(servers), self._enclosure_size):
            members = list(range(start, min(start + self._enclosure_size,
                                            len(servers))))
            enclosure = start // self._enclosure_size
            fan = injector.register_domain(
                f"enclosure{enclosure}/fan", ComponentType.ENCLOSURE_FAN
            )
            psu = injector.register_domain(
                f"enclosure{enclosure}/psu", ComponentType.ENCLOSURE_PSU
            )
            for index in members:
                def throttle(i=index) -> None:
                    servers[i].cpu_throttle = FAN_DEGRADED_THROTTLE

                def unthrottle(i=index) -> None:
                    servers[i].cpu_throttle = 1.0

                # Fan loss degrades (thermal throttle); PSU loss is an
                # outage for the whole enclosure.
                fan.attach(throttle, unthrottle)
                psu.attach(
                    lambda i=index: take_down(i), lambda i=index: bring_up(i)
                )

        return injector
