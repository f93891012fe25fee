"""Reference oracle: the event-at-a-time ``OpenLoopSimulator``.

This is ``repro.simulator.openloop`` as it stood before
``ServerSimulator`` took over open-loop arrivals (every stage a
``Resource`` hop through closures), kept unchanged so
``test_server_kernel.py`` can require the kernel to reproduce it
exactly.  The rest of this docstring is the original module's.

Open-loop (Poisson-arrival) server simulation.

The closed-loop simulator answers "what is the peak?"; this one answers
"what is the latency at a given load?" -- requests arrive in a Poisson
stream at ``arrival_rate_rps`` regardless of completions, the operating
regime of a production service below its saturation point.

Used for latency-vs-load curves (why QoS caps utilization well below the
bottleneck bound) and, with deterministic single-station workloads, for
validating the DES against the exact M/D/1 waiting-time formula and the
M/M/1/K blocking probability (``tests/simulator/test_openloop.py``).

With ``queue_cap`` set, the server holds at most that many requests (in
service + waiting); excess arrivals are *dropped* and accounted in
``SimResult.dropped_requests`` / ``drop_rate`` -- the loss-system regime
overload protection creates on purpose.  Without a cap, an offered load
beyond capacity grows the queue without bound and the run fails loudly;
with a cap the run always completes, so a ``RuntimeWarning`` is emitted
instead when more than half the measured arrivals were dropped (the
latency numbers then describe only the admitted minority).
"""

from __future__ import annotations

import random
import warnings
from typing import Optional

from repro.platforms.platform import Platform
from repro.simulator.server_sim import DiskModel, SimConfig
from repro.workloads.base import Workload
from repro.workloads.qos import QosTracker
from tests.perf.variates import exponential_sampler
from tests.simulator.engine import Simulation
from tests.simulator.reference_server_sim import PlatformDiskModel, SimResult
from tests.simulator.resources import Resource


class OpenLoopSimulator:
    """Poisson arrivals at a fixed rate against one simulated server."""

    def __init__(
        self,
        platform: Platform,
        workload: Workload,
        arrival_rate_rps: float,
        config: SimConfig = SimConfig(),
        disk_model: Optional[DiskModel] = None,
        memory_slowdown: float = 1.0,
        queue_cap: Optional[int] = None,
    ):
        if arrival_rate_rps <= 0:
            raise ValueError("arrival rate must be positive")
        if memory_slowdown < 1.0:
            raise ValueError("memory_slowdown is a multiplier >= 1.0")
        if queue_cap is not None and queue_cap < 1:
            raise ValueError("queue_cap must be positive (or None)")
        self._platform = platform
        self._workload = workload
        self._profile = workload.profile
        self._rate_per_ms = arrival_rate_rps / 1000.0
        self._config = config
        self._disk_model = disk_model or PlatformDiskModel(platform)
        self._memory_slowdown = memory_slowdown
        self._queue_cap = queue_cap

    def run(self) -> SimResult:
        """Generate arrivals until the measurement window completes."""
        sim = Simulation()
        rng = random.Random(self._config.seed)
        # Stream-identical fast path for rng.expovariate: the arrival
        # stream shares the generator with workload sampling, so draws
        # must consume exactly the same uniforms as the naive code.
        sample_exp = exponential_sampler(rng)
        platform = self._platform
        profile = self._profile

        cpu = Resource(sim, "cpu", platform.cpu.total_cores)
        mem = Resource(sim, "mem", platform.memory.channels)
        disk = Resource(sim, "disk", 1)
        nic = Resource(sim, "nic", 1)

        warmup = self._config.warmup_requests
        measure = self._config.measure_requests
        total_needed = warmup + measure
        #: In-flight bound: queues past this mean the offered load exceeds
        #: capacity and latencies are meaningless -- fail loudly instead.
        overload_threshold = max(2000, total_needed // 4)
        qos = QosTracker(profile.qos) if profile.qos else None
        responses: list = []
        busy_at_start = {r.name: 0.0 for r in (cpu, mem, disk, nic)}
        state = {"completions": 0, "arrivals": 0, "dropped": 0,
                 "win_arrivals": 0, "win_dropped": 0, "t0": 0.0, "t1": 0.0,
                 "done": False, "overloaded": False}

        def schedule_arrival() -> None:
            if state["done"]:
                return
            delay = sample_exp(self._rate_per_ms)
            sim.schedule(delay, arrive)

        def arrive() -> None:
            if state["done"]:
                return
            state["arrivals"] += 1
            measuring = state["completions"] >= warmup
            if measuring:
                state["win_arrivals"] += 1
            in_flight = (
                state["arrivals"] - state["completions"] - state["dropped"] - 1
            )
            if self._queue_cap is not None and in_flight >= self._queue_cap:
                # Finite system: the arrival is rejected, not queued.
                state["dropped"] += 1
                if measuring:
                    state["win_dropped"] += 1
                schedule_arrival()
                return
            admitted_in_flight = (
                state["arrivals"] - state["dropped"] - state["completions"]
            )
            if admitted_in_flight > overload_threshold:
                state["overloaded"] = True
                state["done"] = True
                sim.stop()
                return
            schedule_arrival()
            request = self._workload.sample(rng)
            demand = request.demand
            start = sim.now

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
            disk_ms = self._disk_model.service_ms(
                demand.disk_ios, demand.disk_bytes, demand.disk_write, rng
            )
            net_ms = platform.net_time_ms(demand.net_bytes)

            def complete() -> None:
                state["completions"] += 1
                if state["completions"] == warmup:
                    state["t0"] = sim.now
                    for resource in (cpu, mem, disk, nic):
                        busy_at_start[resource.name] = resource.stats.busy_time_ms
                elif state["completions"] > warmup and not state["done"]:
                    response = sim.now - start
                    responses.append(response)
                    if qos is not None:
                        qos.record(response)
                    if state["completions"] >= total_needed:
                        state["done"] = True
                        state["t1"] = sim.now
                        sim.stop()

            def after_disk() -> None:
                nic.acquire(net_ms, complete)

            def after_mem() -> None:
                disk.acquire(disk_ms, after_disk)

            def after_cpu() -> None:
                mem.acquire(mem_ms, after_mem)

            slices = max(1, min(platform.cpu.total_cores, demand.cpu_parallelism))
            if slices == 1:
                cpu.acquire(cpu_ms, after_cpu)
            else:
                join = {"left": slices}

                def slice_done() -> None:
                    join["left"] -= 1
                    if join["left"] == 0:
                        after_cpu()

                for _ in range(slices):
                    cpu.acquire(cpu_ms / slices, slice_done)

        schedule_arrival()
        sim.run()

        if state["overloaded"] or not state["done"]:
            raise RuntimeError(
                "the server cannot sustain the offered load of "
                f"{self._rate_per_ms * 1000:.1f} req/s "
                "(in-flight requests grew without bound)"
            )
        window = max(state["t1"] - state["t0"], 1e-9)
        throughput = len(responses) / (window / 1000.0)
        mean_response = sum(responses) / len(responses)
        percentile = qos.percentile_ms() if qos and qos.count else mean_response
        drop_rate = (
            state["win_dropped"] / state["win_arrivals"]
            if state["win_arrivals"]
            else 0.0
        )
        if drop_rate > 0.5:
            warnings.warn(
                f"offered load of {self._rate_per_ms * 1000:.1f} req/s is "
                f"unsustainable: the queue cap of {self._queue_cap} dropped "
                f"{drop_rate:.0%} of arrivals; latency figures describe only "
                "the admitted requests",
                RuntimeWarning,
                stacklevel=2,
            )
        return SimResult(
            throughput_rps=throughput,
            mean_response_ms=mean_response,
            qos_percentile_ms=percentile,
            qos_met=qos.satisfied() if qos else True,
            utilization={
                r.name: min(
                    1.0,
                    (r.stats.busy_time_ms - busy_at_start[r.name])
                    / (r.servers * window),
                )
                for r in (cpu, mem, disk, nic)
            },
            population=0,
            measured_requests=len(responses),
            dropped_requests=state["win_dropped"],
            drop_rate=drop_rate,
        )
