"""``ServerSimulator.run`` against the event-at-a-time engines it replaced.

``reference_server_sim.py`` (closed loop) and ``reference_openloop.py``
(Poisson arrivals) are those engines (every stage a ``Resource`` hop
through closures).  The kernel must reproduce the closed-loop one's
``SimResult`` on every platform, benchmark, population, disk model and
memory slowdown, its trace digest and metrics snapshot when traced, and
its error from every per-request check; and the open-loop one's
``SimResult``, overload error and drop warning.
"""

import dataclasses
import warnings

import pytest

from repro.flashcache.analysis import DISK_CONFIGURATIONS, disk_configuration
from repro.obs import MetricsRegistry, SpanKind, Tracer, trace_digest
from repro.platforms.catalog import PLATFORMS, platform
from repro.simulator.analytic import AnalyticServerModel
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.base import Workload
from repro.workloads.suite import benchmark_names, make_workload
from tests.simulator import reference_openloop, reference_server_sim

ENGINES = pytest.mark.parametrize(
    "engine", (ServerSimulator, reference_server_sim.ServerSimulator),
    ids=("kernel", "reference"),
)
CONFIG = SimConfig(warmup_requests=40, measure_requests=160, seed=7)
#: The platform's own disk, then every Table 3(b) model, built per run
#: (a flash cache carries state).
DISKS = (None,) + tuple(
    lambda name, config=config: config.disk_spec(name).build()
    for config in DISK_CONFIGURATIONS
)


def saturating_population(plat, workload) -> int:
    """Twice the population at which the analytic bottleneck saturates."""
    model = AnalyticServerModel(plat, workload)
    cycle_ms = workload.profile.think_time_ms + sum(
        demand for demand, _ in model.service_demands()
    )
    return min(512, max(4, int(2 * model.saturation_rps() / 1000.0 * cycle_ms)))


def run(engine, plat, workload, disk=None, **kwargs):
    """``vars`` of one run's result (the two engines' classes differ)."""
    simulator = engine(
        plat, workload, disk_model=disk(workload.name) if disk else None, **kwargs
    )
    return vars(simulator.run())


def traced(engine, plat, workload, disk=None, **kwargs):
    """Result, trace digest and metrics snapshot of a fully traced run."""
    tracer = Tracer(sample_rate=1.0, seed=3)
    metrics = MetricsRegistry()
    result = run(engine, plat, workload, disk, tracer=tracer, metrics=metrics,
                 config=CONFIG, **kwargs)
    return (result, trace_digest([("server", tracer.traces)]), metrics.snapshot()), tracer


@pytest.mark.parametrize("bench", benchmark_names())
@pytest.mark.parametrize("name", list(PLATFORMS))
def test_kernel_matches_reference(name, bench):
    plat = platform(name)
    workload = make_workload(bench)
    for population in (2, saturating_population(plat, workload)):
        for disk in DISKS:
            for slowdown in (1.0, 1.02):
                kwargs = dict(population=population, config=CONFIG,
                              memory_slowdown=slowdown)
                assert run(ServerSimulator, plat, workload, disk, **kwargs) == run(
                    reference_server_sim.ServerSimulator, plat, workload, disk,
                    **kwargs,
                ), (population, disk, slowdown)


class TestTracedRuns:
    @pytest.mark.parametrize("bench", benchmark_names())
    def test_platform_disk(self, bench):
        workload = make_workload(bench)
        kernel, _ = traced(ServerSimulator, platform("desk"), workload, population=24)
        reference, _ = traced(
            reference_server_sim.ServerSimulator, platform("desk"), workload,
            population=24,
        )
        assert kernel == reference

    def test_flash_cache_components(self):
        """Traced requests take the flash model's ``service_components``."""
        spec = disk_configuration("remote-laptop+flash").disk_spec("websearch")
        disk = lambda name: spec.build()  # noqa: E731
        workload = make_workload("websearch")
        kernel, tracer = traced(
            ServerSimulator, platform("emb1"), workload, disk, population=24
        )
        reference, _ = traced(
            reference_server_sim.ServerSimulator, platform("emb1"), workload,
            disk, population=24,
        )
        assert kernel == reference
        assert any(
            span.kind == SpanKind.FLASH
            for trace in tracer.traces for span in trace.spans
        )

    def test_stop_between_disk_and_nic(self):
        """A NIC-bound run stops while traced requests have left the disk
        but not the NIC: their disk stage is recorded, their NIC stage not."""
        # ~40 ms on a 1 GbE NIC behind a few microseconds of disk.
        fields = (0.1, 0.1, 0.001, 0.0, 5e6, False, 1, "net-bound")
        workload = Workload(make_workload("webmail").profile, draw=lambda rng: fields)
        kernel, tracer = traced(
            ServerSimulator, platform("desk"), workload, population=200
        )
        reference, _ = traced(
            reference_server_sim.ServerSimulator, platform("desk"), workload,
            population=200,
        )
        assert kernel == reference
        assert any(
            trace.status == "truncated"
            and any(span.kind == SpanKind.DISK for span in trace.spans)
            and not any(span.kind == SpanKind.NET for span in trace.spans)
            for trace in tracer.traces
        )


def open_loop(engine, plat, workload, load, disk=None, **kwargs):
    """Result or overload error, and warnings, of an open-loop run offered
    ``load`` times the analytic saturation rate."""
    rate = load * AnalyticServerModel(plat, workload).saturation_rps()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = run(engine, plat, workload, disk, arrival_rate_rps=rate,
                          config=CONFIG, **kwargs)
        except RuntimeError as exc:
            outcome = str(exc)
    return outcome, [(w.category, str(w.message)) for w in caught]


def assert_open_loop_matches(plat, workload, load, disk=None, **kwargs):
    """The kernel's outcome equals the reference's; returns it."""
    kernel = open_loop(ServerSimulator, plat, workload, load, disk, **kwargs)
    reference = open_loop(
        reference_openloop.OpenLoopSimulator, plat, workload, load, disk, **kwargs
    )
    assert kernel == reference, (plat.name, workload.name, load, kwargs)
    return kernel


class TestOpenLoop:
    @pytest.mark.parametrize("bench", benchmark_names())
    @pytest.mark.parametrize("name", list(PLATFORMS))
    def test_below_and_above_saturation(self, name, bench):
        """At 1.3 times saturation the queue grows, but the window ends
        long before it holds 2,000 requests."""
        for load in (0.5, 1.3):
            outcome, _ = assert_open_loop_matches(
                platform(name), make_workload(bench), load
            )
            assert outcome["population"] == 0

    @pytest.mark.parametrize("name", list(PLATFORMS))
    def test_overload_error(self, name):
        """Twenty times saturation piles 2,000 requests up within the
        window: both engines stop with the same error."""
        outcome, _ = assert_open_loop_matches(
            platform(name), make_workload("webmail"), 20.0
        )
        assert outcome.startswith("the server cannot sustain the offered load")

    def test_queue_caps(self):
        """Caps of 1, 4 and 32 below and at twice saturation: the drops,
        and the warning when they pass half the window's arrivals."""
        outcomes = [
            assert_open_loop_matches(
                platform(name), make_workload(bench), load, queue_cap=cap
            )
            for cap in (1, 4, 32)
            for name in ("srvr1", "emb2")
            for bench in ("websearch", "ytube")
            for load in (0.5, 2.0)
        ]
        assert any(result["dropped_requests"] for result, _ in outcomes)
        assert any(caught for _, caught in outcomes)

    @pytest.mark.parametrize("bench", benchmark_names())
    def test_disk_models_and_memory_slowdown(self, bench):
        workload = make_workload(bench)
        for name in ("srvr1", "emb1"):
            plat = platform(name)
            for disk in DISKS[1:]:
                assert_open_loop_matches(plat, workload, 0.8, disk)
            assert_open_loop_matches(plat, workload, 0.8, memory_slowdown=1.3)

    @pytest.mark.parametrize("load,cap", [(0.8, None), (2.0, 4)])
    def test_traced_equals_untraced(self, load, cap):
        plat, workload = platform("desk"), make_workload("websearch")
        rate = load * AnalyticServerModel(plat, workload).saturation_rps()
        kwargs = dict(arrival_rate_rps=rate, queue_cap=cap)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            (result, _, snapshot), tracer = traced(
                ServerSimulator, plat, workload, **kwargs
            )
            assert result == run(
                ServerSimulator, plat, workload, config=CONFIG, **kwargs
            )
        assert len(tracer.completed_traces()) >= (
            CONFIG.warmup_requests + CONFIG.measure_requests
        )
        counters = {m["name"]: m["value"] for m in snapshot if m["type"] == "counter"}
        assert counters["server.requests"] == result["measured_requests"]

    def test_population_is_closed_loop_only(self, srvr1):
        with pytest.raises(ValueError, match="no population"):
            ServerSimulator(
                srvr1, make_workload("webmail"), population=4, arrival_rate_rps=1.0
            )

    def test_queue_cap_needs_open_loop(self, srvr1):
        with pytest.raises(ValueError, match="queue_cap needs an open loop"):
            ServerSimulator(srvr1, make_workload("webmail"), queue_cap=4)


class _NoClients:
    """A population policy that starts no clients."""

    def population(self, cores: int) -> int:
        return 0


class _NegativeDisk:
    """A disk model that reports a negative service time."""

    def service_ms(self, demand, rng) -> float:
        return -1.0


def constant(fields):
    """A webmail-profiled workload whose every request is ``fields``."""
    return Workload(make_workload("webmail").profile, draw=lambda rng: fields)


@ENGINES
class TestKeptChecks:
    def test_negative_demand_component(self, engine, srvr1):
        workload = constant((1.0, -1.0, 0.0, 0.0, 0.0, False, 1, "x"))
        with pytest.raises(ValueError, match="mem_ms_ref must be >= 0"):
            run(engine, srvr1, workload, population=2, config=CONFIG)

    def test_cpu_parallelism_below_one(self, engine, srvr1):
        workload = constant((1.0, 1.0, 0.0, 0.0, 0.0, False, 0, "x"))
        with pytest.raises(ValueError, match="cpu_parallelism must be >= 1"):
            run(engine, srvr1, workload, population=2, config=CONFIG)

    def test_negative_service_time(self, engine, srvr1):
        workload = constant((1.0, 1.0, 1.0, 0.0, 0.0, False, 1, "x"))
        with pytest.raises(ValueError, match="service time must be >= 0"):
            run(engine, srvr1, workload, lambda name: _NegativeDisk(),
                population=2, config=CONFIG)

    def test_drained_event_queue(self, engine, srvr1):
        base = make_workload("webmail")
        profile = dataclasses.replace(base.profile, population=_NoClients())
        workload = Workload(profile, draw=base.fast_demand)
        with pytest.raises(RuntimeError, match="drained its event queue"):
            run(engine, srvr1, workload, config=CONFIG)
