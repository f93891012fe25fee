"""``ServerSimulator.run`` against the event-at-a-time engines it replaced.

``reference_server_sim.py`` (closed loop) and ``reference_openloop.py``
(Poisson arrivals) are those engines (every stage a ``Resource`` hop
through closures).  The kernel must reproduce the closed-loop one's
``SimResult`` on every platform, benchmark, population, disk model and
memory slowdown, and its error from every per-request check; and the
open-loop one's ``SimResult`` and overload error.  The oracles' results
also carry a queue cap's drop fields, which the kernel has no cap to
fill: they must read 0.
"""

import dataclasses

import pytest

from repro.flashcache.analysis import DISK_CONFIGURATIONS
from repro.platforms.catalog import PLATFORMS, platform
from repro.simulator.analytic import AnalyticServerModel
from repro.simulator.server_sim import ServerSimulator, SimConfig, SimResult
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
#: The fields of the kernel's result.
FIELDS = [field.name for field in dataclasses.fields(SimResult)]


def saturating_population(plat, workload) -> int:
    """Twice the population at which the analytic bottleneck saturates."""
    model = AnalyticServerModel(plat, workload)
    cycle_ms = workload.profile.think_time_ms + sum(
        demand for demand, _ in model.service_demands()
    )
    return min(512, max(4, int(2 * model.saturation_rps() / 1000.0 * cycle_ms)))


def run(engine, plat, workload, disk=None, **kwargs):
    """The kernel's fields of one run's result (the engines' classes
    differ), after checking that an oracle's drop fields read 0."""
    simulator = engine(
        plat, workload, disk_model=disk(workload.name) if disk else None, **kwargs
    )
    result = vars(simulator.run())
    assert result.get("dropped_requests", 0) == 0
    assert result.get("drop_rate", 0.0) == 0.0
    return {name: result[name] for name in FIELDS}


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


def open_loop(engine, plat, workload, load, disk=None, **kwargs):
    """Result or overload error of an open-loop run offered ``load``
    times the analytic saturation rate."""
    rate = load * AnalyticServerModel(plat, workload).saturation_rps()
    try:
        return run(engine, plat, workload, disk, arrival_rate_rps=rate,
                   config=CONFIG, **kwargs)
    except RuntimeError as exc:
        return str(exc)


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
            outcome = assert_open_loop_matches(
                platform(name), make_workload(bench), load
            )
            assert outcome["population"] == 0

    @pytest.mark.parametrize("name", list(PLATFORMS))
    def test_overload_error(self, name):
        """Twenty times saturation piles 2,000 requests up within the
        window: both engines stop with the same error."""
        outcome = assert_open_loop_matches(
            platform(name), make_workload("webmail"), 20.0
        )
        assert outcome.startswith("the server cannot sustain the offered load")

    @pytest.mark.parametrize("bench", benchmark_names())
    def test_disk_models_and_memory_slowdown(self, bench):
        workload = make_workload(bench)
        for name in ("srvr1", "emb1"):
            plat = platform(name)
            for disk in DISKS[1:]:
                assert_open_loop_matches(plat, workload, 0.8, disk)
            assert_open_loop_matches(plat, workload, 0.8, memory_slowdown=1.3)

    def test_population_is_closed_loop_only(self, srvr1):
        with pytest.raises(ValueError, match="no population"):
            ServerSimulator(
                srvr1, make_workload("webmail"), population=4, arrival_rate_rps=1.0
            )


class _NoClients:
    """A population policy that starts no clients."""

    def population(self, cores: int) -> int:
        return 0


class _NegativeDisk:
    """A disk model that reports a negative service time."""

    def service_ms(self, ios, num_bytes, write, rng) -> float:
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
