"""Tests of the adaptive QoS client driver."""

import dataclasses
import math

import pytest

import repro.simulator.server_sim as server_sim_module
import repro.simulator.sweep as sweep_module
from repro.costmodel.catalog import system_names
from repro.flashcache.analysis import disk_configuration
from repro.platforms.catalog import platform
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.simulator.sweep import QosSweep, clear_sweep_memo
from repro.workloads.base import Workload
from repro.workloads.client import ClientDriver
from repro.workloads.qos import QosSpec, QosTracker
from repro.workloads.suite import benchmark_names, make_workload


@pytest.fixture(scope="module")
def config():
    return SimConfig(warmup_requests=100, measure_requests=700, seed=9)


def _full_run(plat, workload, population, config):
    return ServerSimulator(plat, workload, population=population,
                           config=config).run()


def _stopped_run(plat, workload, population, config):
    return ServerSimulator(plat, workload, population=population,
                           config=config).run(stop_at_qos_failure=True)


class TestQosSweep:
    def test_peak_meets_qos(self, config):
        result = QosSweep(platform("srvr2"), make_workload("websearch"),
                          config=config).find_peak()
        assert result.qos_met
        assert result.throughput_rps > 0

    def test_peak_is_near_qos_boundary(self, config):
        """Pushing well past the found population should violate QoS."""
        plat = platform("srvr2")
        workload = make_workload("websearch")
        result = QosSweep(plat, workload, config=config).find_peak()
        beyond = ServerSimulator(
            plat, workload, population=result.population * 3, config=config
        ).run()
        assert not beyond.qos_met

    def test_degraded_mode_when_qos_unattainable(self, config):
        """emb2 webmail: one request's service time already busts the
        budget; the driver reports single-client throughput, from a full
        run (a single client is never stopped at its QoS failure)."""
        plat, workload = platform("emb2"), make_workload("webmail")
        result = QosSweep(plat, workload, config=config).find_peak()
        assert not result.qos_met
        assert result.population == 1
        assert result.throughput_rps > 0
        assert result.best == _full_run(plat, workload, 1, config)

    def test_population_cap_respected(self, config):
        """ytube's connection cap bounds the sweep."""
        workload = make_workload("ytube")
        result = QosSweep(platform("srvr1"), workload, config=config).find_peak()
        assert result.population <= workload.profile.max_population

    def test_caches_simulations(self, config):
        sweep = QosSweep(platform("desk"), make_workload("webmail"), config=config)
        result = sweep.find_peak()
        assert result.evaluations >= 1
        # Re-running is free (cache) and deterministic.
        again = sweep.find_peak()
        assert again.throughput_rps == result.throughput_rps

    def test_faster_platform_achieves_higher_peak(self, config):
        workload_name = "websearch"
        peaks = {}
        for name in ("srvr1", "emb1"):
            peaks[name] = QosSweep(
                platform(name), make_workload(workload_name), config=config
            ).find_peak().throughput_rps
        assert peaks["srvr1"] > 2 * peaks["emb1"]


@pytest.fixture
def fresh_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


def _check_against_full_runs(plat, workload, config, monkeypatch, spec=None):
    """Sweep ``workload`` as the search does and as a sweep of full runs,
    and return how many of the search's evaluations stopped early.

    At every population the sweep evaluates, a stopped run fails exactly
    when the full run does, and is the full run whenever it passes; the
    sweep's result and ``explored()`` equal a sweep of full runs.  With
    ``spec``, every sweep and run has a model built from it."""

    def disk():
        return None if spec is None else spec.build()

    def run(population, **kwargs):
        return ServerSimulator(plat, workload, population=population,
                               config=config, disk_model=disk()).run(**kwargs)

    real_run = ServerSimulator.run
    stopped_early = []

    def recording(self, **kwargs):
        result = real_run(self, **kwargs)
        stopped_early.append(result.measured_requests < config.measure_requests)
        return result

    bench = workload.name
    clear_sweep_memo()
    with monkeypatch.context() as patch:
        patch.setattr(ServerSimulator, "run", lambda self, **_: real_run(self))
        full_sweep = QosSweep(plat, workload, config=config, disk_model=disk())
        want = full_sweep.find_peak()
        full = full_sweep.explored()
    clear_sweep_memo()
    with monkeypatch.context() as patch:
        patch.setattr(ServerSimulator, "run", recording)
        sweep = QosSweep(plat, workload, config=config, disk_model=disk())
        got = sweep.find_peak()
    assert (got.best, got.population, got.evaluations) == (
        want.best, want.population, want.evaluations), bench
    for population, full_run in full.items():
        assert full_run.measured_requests == config.measure_requests
        stopped = run(population, stop_at_qos_failure=True)
        assert stopped.qos_met == full_run.qos_met, (bench, population)
        if stopped.measured_requests < config.measure_requests:
            assert not full_run.qos_met
        else:
            assert stopped == full_run
    assert sweep.explored() == full, bench
    return sum(stopped_early)


@pytest.mark.usefixtures("fresh_memo")
class TestStoppedEvaluations:
    """A failing population above one client stops at the completion that
    decides its QoS failure; nothing the sweep reports may show it."""

    @pytest.mark.parametrize("system", system_names())
    def test_figure2c_sweeps_match_full_runs(self, system, config, monkeypatch):
        """Every sweep of Figure 2(c)'s column for ``system`` (its batch
        benchmarks run once, with no QoS spec, and never sweep)."""
        plat = platform(system)
        swept = stops = 0
        for bench in benchmark_names():
            workload = make_workload(bench)
            if workload.profile.qos is None:
                continue
            swept += 1
            stops += _check_against_full_runs(plat, workload, config,
                                              monkeypatch)
        assert swept == 3
        assert stops > 0

    def test_remote_laptop_sweeps_match_full_runs(self, config, monkeypatch):
        """Table 3's remote-laptop disk is a stateless SAN model, so its
        sweeps on emb1 stop failing points as the platform's disk does."""
        remote = disk_configuration("remote-laptop")
        stops = 0
        for bench in ("websearch", "webmail", "ytube"):
            stops += _check_against_full_runs(
                platform("emb1"), make_workload(bench), config, monkeypatch,
                spec=remote.disk_spec(bench),
            )
        assert stops > 0

    def test_remote_laptop_client_driver_reports_full_numbers(self, config):
        plat, workload = platform("emb1"), make_workload("websearch")
        spec = disk_configuration("remote-laptop").disk_spec("websearch")
        report = ClientDriver(plat, workload, config=config,
                              disk_model=spec.build()).run()
        assert any(not point.qos_met for point in report.explored)
        for point in report.explored:
            full = ServerSimulator(plat, workload, population=point.clients,
                                   config=config,
                                   disk_model=spec.build()).run()
            assert (point.transaction_rate_rps, point.qos_percentile_ms,
                    point.qos_met) == (full.throughput_rps,
                                       full.qos_percentile_ms, full.qos_met)

    @pytest.mark.parametrize("above", [True, False],
                             ids=["limit-at-p95", "limit-below-p95"])
    def test_boundary_limit(self, above, config, monkeypatch):
        """A QoS limit at a full run's own nearest-rank p95 passes; the
        next float below it fails, and the stopped run ends at the
        deciding violation: the response that puts
        ``violations_to_fail`` of the window over the limit."""
        plat, base = platform("srvr2"), make_workload("websearch")
        population = 90
        trackers = []

        class Recording(QosTracker):
            def __init__(self, spec):
                super().__init__(spec)
                trackers.append(self)

        monkeypatch.setattr(server_sim_module, "QosTracker", Recording)
        p95 = _full_run(plat, base, population, config).qos_percentile_ms
        responses = list(trackers[-1]._samples)
        limit = p95 if above else math.nextafter(p95, 0.0)
        spec = QosSpec(limit_ms=limit)
        workload = Workload(dataclasses.replace(base.profile, qos=spec),
                            draw=base.fast_demand)
        reference = QosTracker(spec)
        for response in responses:
            reference.record(response)

        stopped = _stopped_run(plat, workload, population, config)
        assert stopped.qos_met is reference.satisfied() is above
        if above:
            assert stopped == _full_run(plat, workload, population, config)
            return
        over = [i for i, response in enumerate(responses, 1)
                if response > limit]
        deciding = over[spec.violations_to_fail(len(responses)) - 1]
        assert stopped.measured_requests == deciding < len(responses)

    def test_stopped_memo_entry_gives_client_driver_full_numbers(self, config):
        plat, workload = platform("srvr2"), make_workload("websearch")
        QosSweep(plat, workload, config=config).find_peak()
        memo = sweep_module._SIM_MEMO
        assert any(result.measured_requests < config.measure_requests
                   for result in memo.values())
        report = ClientDriver(plat, workload, config=config).run()
        assert any(not point.qos_met for point in report.explored)
        for point in report.explored:
            full = _full_run(plat, workload, point.clients, config)
            assert (point.transaction_rate_rps, point.qos_percentile_ms,
                    point.qos_met) == (full.throughput_rps,
                                       full.qos_percentile_ms, full.qos_met)
        assert all(result.measured_requests == config.measure_requests
                   for result in memo.values())

    def test_flash_cached_sweep_runs_every_point_in_full(self, config,
                                                         monkeypatch):
        """Behind a disk model the points share one model's state, so no
        evaluation stops early."""
        from repro.flashcache.analysis import disk_configuration

        stops = []
        real_run = ServerSimulator.run

        def recording(self, **kwargs):
            stops.append(kwargs.get("stop_at_qos_failure", False))
            return real_run(self, **kwargs)

        monkeypatch.setattr(ServerSimulator, "run", recording)
        spec = disk_configuration("remote-laptop+flash").disk_spec("webmail")
        QosSweep(platform("emb1"), make_workload("webmail"), config=config,
                 disk_model=spec.build()).find_peak()
        assert stops and not any(stops)
