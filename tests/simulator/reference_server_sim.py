"""Reference oracle: the event-at-a-time ``ServerSimulator`` engine.

This is ``repro.simulator.server_sim`` as it stood before its packed-event
kernel (every stage a ``Resource`` hop through closures), kept unchanged
so ``test_server_kernel.py`` can require the kernel to reproduce it
exactly.  The rest of this docstring is the original module's.

Closed-loop server simulation.

``population`` clients each loop: think (exponential), issue one request,
wait for its response, repeat.  A request visits the server's resources in
order -- CPU cores, memory channels, disk, NIC -- with service times
derived from the request's platform-independent demand through the
:class:`~repro.platforms.platform.Platform` model.

Measurement uses a completion-count protocol: the first
``warmup_requests`` completions are discarded, the next
``measure_requests`` completions define the measurement window, and
throughput is completions divided by window duration.  Response times of
requests completing inside the window feed the QoS tracker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.obs.span import SpanKind
from repro.obs.tracer import record_stage, record_stage_parts
from repro.platforms.platform import Platform
from repro.workloads.base import Workload
from repro.workloads.qos import QosTracker
from tests.perf.variates import exponential_sampler
from tests.simulator.engine import Simulation
from tests.simulator.resources import Resource


class DiskModel(Protocol):
    """Strategy for turning a request's disk demand into service time.

    The default uses the platform's disk device directly; the flash-cache
    experiments (paper section 3.5) substitute a model that consults the
    flash cache first.
    """

    def service_ms(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> float:
        """Disk service time for one request."""
        ...  # pragma: no cover - protocol


class PlatformDiskModel:
    """Default disk model: every I/O goes to the platform's disk."""

    def __init__(self, platform: Platform):
        self._platform = platform

    def service_ms(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> float:
        return self._platform.disk_time_ms(ios, num_bytes, write=write)

    def service_components(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ):
        """Typed breakdown of :meth:`service_ms` (identical RNG draws)."""
        return [("disk", "disk", self.service_ms(ios, num_bytes, write, rng))]


@dataclass(frozen=True)
class SimConfig:
    """Measurement-protocol parameters."""

    warmup_requests: int = 300
    measure_requests: int = 2500
    seed: int = 1

    def __post_init__(self) -> None:
        if self.warmup_requests < 0 or self.measure_requests <= 0:
            raise ValueError("invalid request counts")


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    throughput_rps: float
    mean_response_ms: float
    qos_percentile_ms: float
    qos_met: bool
    utilization: Dict[str, float]
    population: int
    measured_requests: int
    #: Arrivals rejected by a finite queue cap during the measurement
    #: window (open-loop runs with ``queue_cap`` only).
    dropped_requests: int = 0
    #: Fraction of measurement-window arrivals rejected by the cap.
    drop_rate: float = 0.0

    def describe(self) -> str:
        flags = "" if self.qos_met else " [QoS violated]"
        return (
            f"{self.throughput_rps:.2f} req/s, mean {self.mean_response_ms:.1f} ms,"
            f" p95 {self.qos_percentile_ms:.1f} ms{flags}"
        )


class ServerSimulator:
    """Simulates one server of ``platform`` running ``workload``."""

    def __init__(
        self,
        platform: Platform,
        workload: Workload,
        population: Optional[int] = None,
        config: SimConfig = SimConfig(),
        disk_model: Optional[DiskModel] = None,
        memory_slowdown: float = 1.0,
        tracer=None,
        metrics=None,
    ):
        if population is not None and population <= 0:
            raise ValueError("population must be positive")
        if memory_slowdown < 1.0:
            raise ValueError("memory_slowdown is a multiplier >= 1.0")
        self._platform = platform
        self._workload = workload
        self._profile = workload.profile
        self._population = (
            population
            if population is not None
            else self._profile.population.population(platform.cpu.total_cores)
        )
        self._config = config
        self._disk_model = disk_model or PlatformDiskModel(platform)
        #: Uniform CPU-time multiplier modelling remote-memory paging
        #: overhead (paper section 3.4's "2% slowdown" style adjustments).
        self._memory_slowdown = memory_slowdown
        #: Optional :class:`repro.obs.Tracer`; sampling decisions are a
        #: pure hash of the request sequence number, so traced runs
        #: consume the same RNG stream as untraced ones.
        self._tracer = tracer
        #: Optional :class:`repro.obs.MetricsRegistry` for labeled
        #: counters/histograms alongside the scalar ``SimResult``.
        self._metrics = metrics

    @property
    def population(self) -> int:
        return self._population

    def run(self) -> SimResult:
        """Execute the closed-loop simulation and return measurements."""
        sim = Simulation()
        rng = random.Random(self._config.seed)
        # Stream-identical fast path for rng.expovariate (same values,
        # same generator state, no per-draw method dispatch).
        sample_exp = exponential_sampler(rng)
        platform = self._platform
        profile = self._profile
        tracer = self._tracer
        metrics = self._metrics
        # Request sequence number: the tracer's sampling key.  Only
        # maintained when tracing -- the untraced path is untouched.
        rid = [0]

        cpu = Resource(sim, "cpu", platform.cpu.total_cores)
        mem = Resource(sim, "mem", platform.memory.channels)
        disk = Resource(sim, "disk", 1)
        nic = Resource(sim, "nic", 1)

        warmup = self._config.warmup_requests
        measure = self._config.measure_requests
        state = _MeasureState(warmup=warmup, target=measure)
        qos = QosTracker(profile.qos) if profile.qos else None
        responses: list = []
        busy_at_start: Dict[str, float] = {r.name: 0.0 for r in (cpu, mem, disk, nic)}

        def client_loop() -> None:
            if state.done:
                return
            think = (
                sample_exp(1.0 / profile.think_time_ms)
                if profile.think_time_ms > 0
                else 0.0
            )
            sim.schedule(think, issue_request)

        def issue_request() -> None:
            if state.done:
                return
            request = self._workload.sample(rng)
            demand = request.demand
            start = sim.now
            if tracer is not None:
                trace = tracer.begin(rid[0], start)
                rid[0] += 1
            else:
                trace = None

            cpu_ms = (
                platform.cpu_time_ms(
                    demand.cpu_ms_ref,
                    profile.cache_sensitivity,
                    profile.inorder_ipc_factor,
                    profile.stall_fraction,
                )
                * self._memory_slowdown
            )
            mem_ms = platform.memory_channel_time_ms(demand.mem_ms_ref)
            # The typed breakdown and the plain total consume identical
            # RNG draws (service_ms delegates to service_components), so
            # asking for components only on traced requests changes
            # nothing downstream.
            disk_parts = None
            if trace is not None:
                parts_fn = getattr(self._disk_model, "service_components", None)
                if parts_fn is not None:
                    disk_parts = parts_fn(
                        demand.disk_ios, demand.disk_bytes, demand.disk_write, rng
                    )
                    disk_ms = sum(part[2] for part in disk_parts)
                else:
                    disk_ms = self._disk_model.service_ms(
                        demand.disk_ios, demand.disk_bytes, demand.disk_write, rng
                    )
            else:
                disk_ms = self._disk_model.service_ms(
                    demand.disk_ios, demand.disk_bytes, demand.disk_write, rng
                )
            net_ms = platform.net_time_ms(demand.net_bytes)
            # Service-start times are recovered retroactively at each
            # stage-completion callback (service is contiguous on these
            # FCFS resources), so tracing adds no events to the heap.
            cursor = [start] if trace is not None else None
            root = trace.root if trace is not None else None

            def after_net() -> None:
                if trace is not None:
                    record_stage(
                        trace, root, cursor[0], sim.now, SpanKind.NET, net_ms
                    )
                    trace.close(sim.now)
                _complete(start)

            def after_disk() -> None:
                if trace is not None:
                    if disk_parts is not None:
                        record_stage_parts(
                            trace, root, cursor[0], sim.now, disk_parts, disk_ms
                        )
                    else:
                        record_stage(
                            trace, root, cursor[0], sim.now, SpanKind.DISK,
                            disk_ms,
                        )
                    cursor[0] = sim.now
                nic.acquire(net_ms, after_net)

            def after_mem() -> None:
                if trace is not None:
                    record_stage(
                        trace, root, cursor[0], sim.now, SpanKind.MEM, mem_ms
                    )
                    cursor[0] = sim.now
                disk.acquire(disk_ms, after_disk)

            # Fork/join: requests with software parallelism split their
            # CPU work into concurrent slices across cores (total work
            # unchanged; latency shrinks when cores are free).
            slices = max(1, min(platform.cpu.total_cores, demand.cpu_parallelism))

            def after_cpu() -> None:
                if trace is not None:
                    # With one slice the contiguous-service interval is
                    # exact; sliced requests report the last slice's
                    # share and annotate the fan-out.
                    span = record_stage(
                        trace, root, cursor[0], sim.now, SpanKind.CPU,
                        cpu_ms / slices,
                    )
                    if slices > 1:
                        span.annotate(slices=slices)
                    cursor[0] = sim.now
                mem.acquire(mem_ms, after_mem)

            if slices == 1:
                cpu.acquire(cpu_ms, after_cpu)
            else:
                join = {"remaining": slices}

                def after_slice() -> None:
                    join["remaining"] -= 1
                    if join["remaining"] == 0:
                        after_cpu()

                for _ in range(slices):
                    cpu.acquire(cpu_ms / slices, after_slice)

        def _complete(start_ms: float) -> None:
            state.completions += 1
            if state.completions == warmup:
                state.window_start = sim.now
                for resource in (cpu, mem, disk, nic):
                    busy_at_start[resource.name] = resource.stats.busy_time_ms
            elif state.completions > warmup and not state.done:
                response = sim.now - start_ms
                responses.append(response)
                if qos is not None:
                    qos.record(response)
                if metrics is not None:
                    metrics.counter("server.requests").inc()
                    metrics.histogram("server.response_ms").record(response)
                if state.completions >= warmup + measure:
                    state.done = True
                    state.window_end = sim.now
                    sim.stop()
                    return
            client_loop()

        for _ in range(self._population):
            client_loop()
        sim.run()

        if not state.done:
            raise RuntimeError(
                "simulation drained its event queue before the measurement "
                "window completed; increase population or request counts"
            )

        if tracer is not None:
            tracer.finalize(sim.now)

        window = max(state.window_end - state.window_start, 1e-9)
        throughput = len(responses) / (window / 1000.0)
        mean_response = sum(responses) / len(responses)
        percentile = qos.percentile_ms() if qos and qos.count else mean_response
        qos_met = qos.satisfied() if qos else True

        if metrics is not None:
            metrics.gauge("server.throughput_rps").set(throughput)
            for resource in (cpu, mem, disk, nic):
                utilization = min(
                    1.0,
                    (resource.stats.busy_time_ms - busy_at_start[resource.name])
                    / (resource.servers * window),
                )
                metrics.gauge(
                    "server.utilization", resource=resource.name
                ).set(utilization)

        return SimResult(
            throughput_rps=throughput,
            mean_response_ms=mean_response,
            qos_percentile_ms=percentile,
            qos_met=qos_met,
            utilization={
                r.name: min(
                    1.0,
                    (r.stats.busy_time_ms - busy_at_start[r.name])
                    / (r.servers * window),
                )
                for r in (cpu, mem, disk, nic)
            },
            population=self._population,
            measured_requests=len(responses),
        )


class _MeasureState:
    """Mutable counters shared by the simulation callbacks (slotted)."""

    __slots__ = ("warmup", "target", "completions", "window_start",
                 "window_end", "done")

    def __init__(self, warmup: int, target: int):
        self.warmup = warmup
        self.target = target
        self.completions = 0
        self.window_start = 0.0
        self.window_end = 0.0
        self.done = False
