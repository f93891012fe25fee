"""Single-server simulation, closed loop or open loop.

In the closed loop (the default), ``population`` clients each loop:
think (exponential), issue one request, wait for its response, repeat.
It answers "what is the peak?" for the paper's client driver.  In the
open loop (``arrival_rate_rps``), requests arrive in a Poisson stream
regardless of completions, the regime of a production service below its
saturation point; it answers "what is the latency at a given load?".
A request visits the server's resources in order -- CPU cores, memory
channels, disk, NIC -- with service times derived from the request's
platform-independent demand through the
:class:`~repro.platforms.platform.Platform` model.

Measurement uses a completion-count protocol: the first
``warmup_requests`` completions are discarded, the next
``measure_requests`` completions define the measurement window, and
throughput is completions divided by window duration.  Response times of
requests completing inside the window feed the QoS tracker.  A run asked
to stop at its QoS failure ends at the measured completion that makes
the failure certain, and reports the completions it measured by then.

An open loop beyond capacity grows its queue without bound, so the run
fails loudly.  With ``queue_cap`` the server holds at most that many
requests (in service plus waiting) and drops the excess arrivals,
accounted in ``SimResult.dropped_requests``/``drop_rate``: the
loss-system regime overload protection creates on purpose.  Such a run
always completes, so it warns instead when more than half the window's
arrivals were dropped (the latencies then describe only the admitted
minority).

:meth:`ServerSimulator.run` is one flat event loop over packed
``(time, seq|kind, request)`` heap tuples.  CPU cores and memory channels
are busy-count plus FIFO-queue stations that grant in the order of the
oracle engines' FCFS stations (``tests/simulator/resources.py``); the
one-server disk and NIC
are Lindley recurrences advanced at each memory completion, so one
request-complete event stands for both of their stages.
"""

from __future__ import annotations

import random
import warnings
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import log
from typing import Dict, List, Optional, Protocol, Tuple

from repro.obs.span import SpanKind
from repro.obs.tracer import record_stage, record_stage_parts
from repro.platforms.platform import Platform
from repro.workloads.base import ResourceDemand, Workload
from repro.workloads.qos import QosTracker


class DiskModel(Protocol):
    """Strategy for turning a request's disk demand into service time.

    The default uses the platform's disk device directly; the flash-cache
    experiments (paper section 3.5) substitute a model that consults the
    flash cache first.  Both methods take the request's disk fields
    (I/O count, bytes, write flag) and make the same draws from ``rng``.

    A model whose class sets ``stateless = True`` serves each request
    from its arguments alone, so runs that share it are independent and
    :class:`~repro.simulator.sweep.QosSweep` may stop their failing
    points early; a model that keeps state (a flash cache) declares
    ``stateless = False`` or nothing.
    """

    def service_ms(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> float:
        """Disk service time for one request."""
        ...  # pragma: no cover - protocol

    def service_components(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> List[Tuple[str, str, float]]:
        """``(span kind, label, ms)`` pieces summing to :meth:`service_ms`."""
        ...  # pragma: no cover - protocol


class PlatformDiskModel:
    """Default disk model: every I/O goes to the platform's disk."""

    stateless = True

    def __init__(self, platform: Platform):
        self._platform = platform

    def service_ms(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> float:
        return self._platform.disk_time_ms(ios, num_bytes, write=write)

    def service_components(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> List[Tuple[str, str, float]]:
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


# Event kinds, in the low two bits of each heap entry's key.
_ISSUE = 0
_CPU = 1
_MEM = 2
_DONE = 3

#: Stations in the order ``SimResult.utilization`` reports them.
_STATIONS = ("cpu", "mem", "disk", "nic")

# One request's state is a plain list:
#
#   [start, cpu_slice_ms, mem_ms, disk_ms, net_ms, slices_left, trace,
#    0      1             2       3        4       5            6
#    disk_grant, disk_busy_before, nic_grant, nic_busy_before]
#    7           8                 9          10
#
# ``trace`` is None unless the request is traced, then
# ``[Trace, cursor_ms, disk_parts, slices]``, where ``disk_parts`` is the
# disk model's ``service_components`` list.  Slots 7-10 are set when the
# request enters the disk and NIC, at its memory completion.


class ServerSimulator:
    """Simulates one server of ``platform`` running ``workload``.

    Closed loop by default; ``arrival_rate_rps`` makes it an open loop
    (no ``population``), and only then may ``queue_cap`` bound it.
    """

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
        arrival_rate_rps: Optional[float] = None,
        queue_cap: Optional[int] = None,
    ):
        if arrival_rate_rps is not None:
            if population is not None:
                raise ValueError("an open loop (arrival_rate_rps) has no population")
            if arrival_rate_rps <= 0:
                raise ValueError("arrival rate must be positive")
        if queue_cap is not None:
            if arrival_rate_rps is None:
                raise ValueError("queue_cap needs an open loop (arrival_rate_rps)")
            if queue_cap < 1:
                raise ValueError("queue_cap must be positive (or None)")
        if population is not None and population <= 0:
            raise ValueError("population must be positive")
        if memory_slowdown < 1.0:
            raise ValueError("memory_slowdown is a multiplier >= 1.0")
        self._platform = platform
        self._workload = workload
        self._profile = workload.profile
        if arrival_rate_rps is not None:
            population = 0
        elif population is None:
            population = self._profile.population.population(
                platform.cpu.total_cores
            )
        self._population = population
        #: Open-loop arrivals per millisecond, or None in the closed loop.
        self._rate_per_ms = (
            None if arrival_rate_rps is None else arrival_rate_rps / 1000.0
        )
        self._queue_cap = queue_cap
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

    def run(self, *, stop_at_qos_failure: bool = False) -> SimResult:
        """Execute the simulation and return measurements.

        The same draws in the same order, the same event order and the
        same floats as event-at-a-time engines with one FCFS station
        object per station, one per traffic model, which the tests keep
        as the references.

        With ``stop_at_qos_failure`` a run whose workload has a QoS spec
        ends at the measured response over the limit that makes the
        window's percentile miss it, whatever the rest of the window
        holds.  Its result has ``qos_met`` False and fewer
        ``measured_requests`` than the config asks for; every other
        field describes the window up to that response only.  A run that
        meets QoS, or fails it only at the window's last completion, is
        the same full run either way.
        """
        platform = self._platform
        profile = self._profile
        tracer = self._tracer
        metrics = self._metrics
        disk_model = self._disk_model
        rng = random.Random(self._config.seed)
        _random = rng.random
        _log = log
        draw = self._workload.fast_demand
        (cpu_factor, mem_divisor, read_latency, write_latency, disk_rate,
         nic_overhead, nic_rate) = platform.service_constants(
            profile.cache_sensitivity,
            profile.inorder_ipc_factor,
            profile.stall_fraction,
        )
        slowdown = self._memory_slowdown
        cores = platform.cpu.total_cores
        channels = platform.memory.channels
        # This platform's own disk is the formula above; any other model
        # is asked per request, and traced requests always ask it for the
        # typed breakdown (the same draws as the total).
        inline_disk = (
            type(disk_model) is PlatformDiskModel
            and disk_model._platform is platform
        )
        disk_service_ms = disk_model.service_ms
        disk_components = (
            disk_model.service_components if tracer is not None else None
        )
        thinks = profile.think_time_ms > 0
        think_rate = 1.0 / profile.think_time_ms if thinks else 0.0
        warmup = self._config.warmup_requests
        target = warmup + self._config.measure_requests
        # Measured responses over ``limit`` are counted toward
        # ``fail_at``; without a stop nothing is over an infinite limit.
        qos_spec = profile.qos
        limit = float("inf")
        fail_at = over = 0
        if stop_at_qos_failure and qos_spec is not None:
            limit = qos_spec.limit_ms
            fail_at = qos_spec.violations_to_fail(self._config.measure_requests)
        rate = self._rate_per_ms
        cap = self._queue_cap
        # Admitted requests in flight past this mean the offered load
        # exceeds capacity and latencies are meaningless.
        max_in_flight = max(2000, target // 4)
        # Open-loop issues are arrivals and traced issues begin a trace:
        # one test keeps both off the closed loop's untraced path.
        hooked = rate is not None or tracer is not None

        # Heap entries are (time, key, request): ``key`` is the push
        # sequence number (in steps of 4) plus the event kind, so equal
        # times pop in push order, the FIFO tie-break.  In the open loop
        # each arrival pushes the next one.
        heap: list = []
        seq = 0
        now = 0.0
        for _ in range(self._population):
            think = -_log(1.0 - _random()) / think_rate if thinks else 0.0
            seq += 4
            heap.append((now + think, seq + _ISSUE, None))
        if rate is not None:
            seq += 4
            heap.append((now + -_log(1.0 - _random()) / rate, seq + _ISSUE, None))
        heapify(heap)

        cpu_busy = mem_busy = 0
        cpu_queue: deque = deque()
        mem_queue: deque = deque()
        # Busy time is booked at each grant, as the oracle books it; the
        # disk and NIC carries are their last departures.
        cpu_time = mem_time = disk_time = nic_time = 0.0
        disk_free = nic_free = 0.0
        completions = 0
        admitted = window_arrivals = window_drops = 0
        window_start = 0.0
        busy_at_start: Tuple[float, ...] = (0.0, 0.0, 0.0, 0.0)
        responses: List[float] = []
        record_response = responses.append
        rid = 0
        trace = None
        done = stopped = False
        pop = heappop
        push = heappush
        while heap:
            now, key, rec = pop(heap)
            kind = key & 3
            if kind == _CPU:
                if cpu_queue:
                    # The next waiter is granted before this slice's
                    # completion is handled (the oracle station's order).
                    waiter = cpu_queue.popleft()
                    service = waiter[1]
                    cpu_time += service
                    seq += 4
                    push(heap, (now + service, seq + _CPU, waiter))
                else:
                    cpu_busy -= 1
                left = rec[5] - 1
                rec[5] = left
                if left:
                    continue
                traced = rec[6]
                if traced is not None:
                    span = record_stage(
                        traced[0], traced[0].root, traced[1], now,
                        SpanKind.CPU, rec[1],
                    )
                    if traced[3] > 1:
                        span.annotate(slices=traced[3])
                    traced[1] = now
                service = rec[2]
                if service < 0.0:
                    raise ValueError("service time must be >= 0")
                if mem_busy < channels:
                    mem_busy += 1
                    mem_time += service
                    seq += 4
                    push(heap, (now + service, seq + _MEM, rec))
                else:
                    mem_queue.append(rec)
            elif kind == _MEM:
                if mem_queue:
                    waiter = mem_queue.popleft()
                    service = waiter[2]
                    mem_time += service
                    seq += 4
                    push(heap, (now + service, seq + _MEM, waiter))
                else:
                    mem_busy -= 1
                traced = rec[6]
                if traced is not None:
                    record_stage(
                        traced[0], traced[0].root, traced[1], now,
                        SpanKind.MEM, rec[2],
                    )
                    traced[1] = now
                disk_ms = rec[3]
                net_ms = rec[4]
                if disk_ms < 0.0 or net_ms < 0.0:
                    raise ValueError("service time must be >= 0")
                # One-server FIFO stations: a request is granted at its
                # entry or at the previous departure, whichever is later,
                # and no later entrant overtakes it (a Lindley step).
                grant = now if now > disk_free else disk_free
                rec[7] = grant
                rec[8] = disk_time
                disk_time += disk_ms
                disk_free = grant + disk_ms
                grant = disk_free if disk_free > nic_free else nic_free
                rec[9] = grant
                rec[10] = nic_time
                nic_time += net_ms
                nic_free = grant + net_ms
                seq += 4
                push(heap, (nic_free, seq + _DONE, rec))
            elif kind == _DONE:
                traced = rec[6]
                if traced is not None:
                    _trace_disk(traced, rec)
                    record_stage(
                        traced[0], traced[0].root, traced[1], now,
                        SpanKind.NET, rec[4],
                    )
                    traced[0].close(now)
                completions += 1
                if completions == warmup:
                    window_start = now
                    busy_at_start = (
                        cpu_time, mem_time,
                        *_granted(heap, now, disk_time, nic_time),
                    )
                elif completions > warmup:
                    response = now - rec[0]
                    record_response(response)
                    if metrics is not None:
                        metrics.counter("server.requests").inc()
                        metrics.histogram("server.response_ms").record(response)
                    if completions >= target:
                        done = True
                        break
                    if response > limit:
                        over += 1
                        if over == fail_at:
                            done = stopped = True
                            break
                if rate is not None:
                    continue
                think = -_log(1.0 - _random()) / think_rate if thinks else 0.0
                seq += 4
                push(heap, (now + think, seq + _ISSUE, None))
            else:
                if hooked:
                    if rate is not None:
                        measuring = completions >= warmup
                        if measuring:
                            window_arrivals += 1
                        full = cap is not None and admitted - completions >= cap
                        if not full:
                            admitted += 1
                            if admitted - completions > max_in_flight:
                                break
                        seq += 4
                        push(heap, (
                            now + -_log(1.0 - _random()) / rate, seq + _ISSUE, None,
                        ))
                        if full:
                            # A finite system drops the arrival, not queues it.
                            if measuring:
                                window_drops += 1
                            continue
                    if tracer is not None:
                        trace = tracer.begin(rid, now)
                        rid += 1
                c, m, ios, dbytes, nbytes, write, par, _ = draw(rng)
                if (c < 0.0 or m < 0.0 or ios < 0.0 or dbytes < 0.0
                        or nbytes < 0.0 or par < 1):
                    # The constructor raises the component's ValueError.
                    ResourceDemand(c, m, ios, dbytes, nbytes, write, par)
                parts = None
                if trace is not None:
                    parts = disk_components(ios, dbytes, write, rng)
                    disk_ms = sum(part[2] for part in parts)
                elif inline_disk:
                    disk_ms = (
                        ios * (write_latency if write else read_latency)
                        + dbytes / disk_rate
                    )
                else:
                    disk_ms = disk_service_ms(ios, dbytes, write, rng)
                slices = par if par < cores else cores
                cpu_ms = c * cpu_factor * slowdown
                service = cpu_ms if slices == 1 else cpu_ms / slices
                if service < 0.0:
                    raise ValueError("service time must be >= 0")
                rec = [
                    now, service, m / mem_divisor, disk_ms,
                    nic_overhead + nbytes / nic_rate, slices,
                    None if trace is None else [trace, now, parts, slices],
                    0.0, 0.0, 0.0, 0.0,
                ]
                for _ in range(slices):
                    if cpu_busy < cores:
                        cpu_busy += 1
                        cpu_time += service
                        seq += 4
                        push(heap, (now + service, seq + _CPU, rec))
                    else:
                        cpu_queue.append(rec)

        if not done:
            if rate is not None:
                raise RuntimeError(
                    "the server cannot sustain the offered load of "
                    f"{rate * 1000:.1f} req/s "
                    "(in-flight requests grew without bound)"
                )
            raise RuntimeError(
                "simulation drained its event queue before the measurement "
                "window completed; increase population or request counts"
            )
        busy_at_end = (cpu_time, mem_time, *_granted(heap, now, disk_time, nic_time))
        if tracer is not None:
            # In-flight requests whose disk departure came before the stop
            # had their disk stage recorded by then.
            for _, key, pending in heap:
                if (key & 3 == _DONE and pending[6] is not None
                        and pending[7] + pending[3] < now):
                    _trace_disk(pending[6], pending)
            tracer.finalize(now)

        window = max(now - window_start, 1e-9)
        throughput = len(responses) / (window / 1000.0)
        mean_response = sum(responses) / len(responses)
        qos = QosTracker(qos_spec) if qos_spec else None
        if qos is not None:
            qos.record_many(responses)
        percentile = qos.percentile_ms() if qos and qos.count else mean_response
        qos_met = not stopped and (qos.satisfied() if qos else True)
        utilization = {
            name: min(1.0, (end - start) / (servers * window))
            for name, servers, start, end in zip(
                _STATIONS, (cores, channels, 1, 1), busy_at_start, busy_at_end
            )
        }
        if metrics is not None:
            metrics.gauge("server.throughput_rps").set(throughput)
            for name, value in utilization.items():
                metrics.gauge("server.utilization", resource=name).set(value)
        drop_rate = window_drops / window_arrivals if window_arrivals else 0.0
        if drop_rate > 0.5:
            warnings.warn(
                f"offered load of {rate * 1000:.1f} req/s is "
                f"unsustainable: the queue cap of {cap} dropped "
                f"{drop_rate:.0%} of arrivals; latency figures describe only "
                "the admitted requests",
                RuntimeWarning,
                stacklevel=2,
            )
        return SimResult(
            throughput_rps=throughput,
            mean_response_ms=mean_response,
            qos_percentile_ms=percentile,
            qos_met=qos_met,
            utilization=utilization,
            population=self._population,
            measured_requests=len(responses),
            dropped_requests=window_drops,
            drop_rate=drop_rate,
        )


def _granted(
    heap: list, now: float, disk_time: float, nic_time: float
) -> Tuple[float, float]:
    """Disk and NIC busy time granted by ``now``.

    The Lindley stations book each request's service when it enters, at
    its memory completion, possibly ahead of its grant.  A request still
    in flight whose grant lies after ``now`` is taken back out by reading
    the running sum as it stood before it: sums grow in grant order, so
    the least such value is the prefix granted by ``now``.  A grant *at*
    ``now`` counts -- ``now`` is a NIC departure, and an FCFS station
    grants the next waiter before the departing request's callback runs.
    """
    for _, key, rec in heap:
        if key & 3 == _DONE:
            if rec[7] > now and rec[8] < disk_time:
                disk_time = rec[8]
            if rec[9] > now and rec[10] < nic_time:
                nic_time = rec[10]
    return disk_time, nic_time


def _trace_disk(traced: list, rec: list) -> None:
    """Record a traced request's disk stage, which ends at its departure."""
    trace = traced[0]
    departure = rec[7] + rec[3]
    record_stage_parts(trace, trace.root, traced[1], departure, traced[2], rec[3])
    traced[1] = departure
