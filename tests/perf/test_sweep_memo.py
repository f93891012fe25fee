"""Process-wide sweep memoization must be invisible in its results:
``QosSweep``'s per-point memo in ``SweepResult``, and
``measure_performance``'s whole-sweep memo in ``PerformanceResult``."""

import dataclasses
import pickle

import pytest

import repro.simulator.performance as performance_module
import repro.simulator.sweep as sweep_module
from repro.flashcache.analysis import (
    DISK_CONFIGURATIONS,
    disk_configuration,
    flash_only_configuration,
)
from repro.flashcache.models import DiskSpec
from repro.platforms.catalog import platform
from repro.simulator.performance import measure_performance
from repro.simulator.server_sim import SimConfig
from repro.simulator.sweep import QosSweep, clear_sweep_memo
from repro.workloads.suite import benchmark_names, make_workload


@pytest.fixture
def config():
    return SimConfig(warmup_requests=50, measure_requests=300, seed=9)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


def _count_runs(monkeypatch):
    """Patch ServerSimulator.run to count actual simulations."""
    calls = []
    real_run = sweep_module.ServerSimulator.run

    def counting(self, **kwargs):
        calls.append(1)
        return real_run(self, **kwargs)

    monkeypatch.setattr(sweep_module.ServerSimulator, "run", counting)
    return calls


class TestSweepMemo:
    def test_second_sweep_identical_without_resimulating(self, config, monkeypatch):
        calls = _count_runs(monkeypatch)
        first = QosSweep(platform("desk"), _webmail(), config=config).find_peak()
        cold_runs = len(calls)
        assert cold_runs > 0
        second = QosSweep(platform("desk"), _webmail(), config=config).find_peak()
        assert len(calls) == cold_runs  # every point came from the memo
        assert second.best == first.best
        assert second.population == first.population
        assert second.evaluations == first.evaluations

    def test_clear_forces_resimulation(self, config, monkeypatch):
        calls = _count_runs(monkeypatch)
        QosSweep(platform("desk"), _webmail(), config=config).find_peak()
        cold_runs = len(calls)
        clear_sweep_memo()
        QosSweep(platform("desk"), _webmail(), config=config).find_peak()
        assert len(calls) == 2 * cold_runs

    def test_distinct_platforms_do_not_collide(self, config):
        a = QosSweep(platform("desk"), _webmail(), config=config).find_peak()
        b = QosSweep(platform("srvr2"), _webmail(), config=config).find_peak()
        assert a.best != b.best

    def test_memory_slowdown_part_of_key(self, config):
        base = QosSweep(platform("desk"), _webmail(), config=config).find_peak()
        slowed = QosSweep(
            platform("desk"), _webmail(), config=config, memory_slowdown=2.0
        ).find_peak()
        assert slowed.best != base.best


def _webmail():
    return make_workload("webmail")


#: The platform's own disk, every Table 3(b) configuration, and flash as
#: a full disk replacement.
DISKS = (None, *DISK_CONFIGURATIONS, flash_only_configuration())
DISK_IDS = ["platform"] + [disk.name for disk in DISKS[1:]]
#: An interactive benchmark (a QosSweep) and a batch one (a single run).
BENCHES = ("webmail", "mapred-wc")


def _spec(disk, bench):
    return None if disk is None else disk.disk_spec(bench)


def _score(disk, bench, config, **overrides):
    """Score ``bench`` on emb1 (the disk study's target) behind ``disk``,
    with a spec built afresh for every call."""
    kwargs = dict(config=config, disk_spec=_spec(disk, bench))
    kwargs.update(overrides)
    return measure_performance(platform("emb1"), make_workload(bench), **kwargs)


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("disk", DISKS, ids=DISK_IDS)
class TestPerformanceMemo:
    def test_repeat_is_answered_without_simulating(
        self, disk, bench, config, monkeypatch
    ):
        first = _score(disk, bench, config)
        calls = _count_runs(monkeypatch)
        assert _score(disk, bench, config) == first
        assert calls == []

    def test_cold_run_equals_memoized(self, disk, bench, config, monkeypatch):
        """The memo hands back scores, never warmed disk models: a run
        after clearing reproduces the memoized score from a cold start,
        even after other sweeps used an equal spec."""
        memoized = _score(disk, bench, config)
        _score(disk, bench, config, memory_slowdown=1.02)
        assert _score(disk, bench, config) == memoized
        clear_sweep_memo()
        calls = _count_runs(monkeypatch)
        assert _score(disk, bench, config) == memoized
        assert calls  # the cold call really simulated

    def test_every_key_part_misses(self, disk, bench, config):
        _score(disk, bench, config)
        # The baseline's desktop disk is emb1's own disk, so its other
        # disk is one that serves differently.
        other_disk = (
            disk_configuration("remote-laptop")
            if disk is None or disk.name == "baseline" else None
        )
        other_config = dataclasses.replace(config, seed=config.seed + 1)
        for run_config, overrides in (
            (config, dict(disk_spec=_spec(other_disk, bench))),
            (config, dict(memory_slowdown=1.02)),
            (other_config, {}),
            (config, dict(method="analytic")),
        ):
            before = len(sweep_module._PERF_MEMO)
            _score(disk, bench, run_config, **overrides)
            assert len(sweep_module._PERF_MEMO) == before + 1, overrides


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("disk", DISKS[1:], ids=DISK_IDS[1:])
class TestDiskSpec:
    def test_equal_specs_hash_equal_and_pickle(self, disk, bench):
        spec = disk.disk_spec(bench)
        twin = disk.disk_spec(bench)
        assert spec == twin
        assert hash(spec) == hash(twin)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_build_returns_a_new_model_each_call(self, disk, bench):
        spec = disk.disk_spec(bench)
        first, second = spec.build(), spec.build()
        assert first is not second
        assert type(first) is type(second)
        if spec.flash_device is not None:
            assert first.cache is not second.cache


#: Device fields a disk model serves with, one change each (the backing
#: device's read latency, bandwidth and capacity, the flash device's
#: read latency), and the fields only the server bill reads.
SERVICE_CHANGES = {
    "latency": ("device", dict(read_latency_ms=16.0)),
    "bandwidth": ("device", dict(bandwidth_mb_s=25.0)),
    "capacity": ("device", dict(capacity_gb=300.0)),
    "flash-latency": ("flash_device", dict(read_latency_ms=0.03)),
}
BILL_CHANGES = {
    "name": ("device", dict(name="renamed-disk")),
    "price": ("device", dict(price_usd=1.0)),
    "power": ("device", dict(power_w=9.0)),
    "flash-bill": ("flash_device", dict(name="other-flash", price_usd=7.0,
                                        power_w=0.25)),
}


def _flash_spec(bench, change=None):
    spec = disk_configuration("remote-laptop+flash").disk_spec(bench)
    if change is None:
        return spec
    field, values = change
    device = dataclasses.replace(getattr(spec, field), **values)
    return dataclasses.replace(spec, **{field: device})


def _score_spec(spec, bench, config):
    return measure_performance(platform("emb1"), make_workload(bench),
                               config=config, disk_spec=spec)


@pytest.mark.parametrize("bench", BENCHES)
class TestDiskServiceKey:
    """``_PERF_MEMO`` keys a disk on what its model serves with."""

    def test_laptop2_flash_reuses_the_laptop_flash_sweep(
        self, bench, config, monkeypatch
    ):
        first = _score(disk_configuration("remote-laptop+flash"), bench, config)
        calls = _count_runs(monkeypatch)
        second = _score(disk_configuration("remote-laptop2+flash"), bench, config)
        assert calls == []
        assert second == first

    @pytest.mark.parametrize("change", BILL_CHANGES.values(), ids=list(BILL_CHANGES))
    def test_bill_fields_hit(self, bench, change, config, monkeypatch):
        first = _score_spec(_flash_spec(bench), bench, config)
        calls = _count_runs(monkeypatch)
        assert _score_spec(_flash_spec(bench, change), bench, config) == first
        assert calls == []

    @pytest.mark.parametrize("change", SERVICE_CHANGES.values(),
                             ids=list(SERVICE_CHANGES))
    def test_service_fields_miss(self, bench, change, config, monkeypatch):
        _score_spec(_flash_spec(bench), bench, config)
        before = len(sweep_module._PERF_MEMO)
        calls = _count_runs(monkeypatch)
        _score_spec(_flash_spec(bench, change), bench, config)
        assert len(sweep_module._PERF_MEMO) == before + 1
        assert calls


#: One change each to the fields of emb1's own disk that its service
#: reads.
OWN_DISK_CHANGES = {
    "read-latency": dict(read_latency_ms=4.5),
    "write-latency": dict(write_latency_ms=4.5),
    "bandwidth": dict(bandwidth_mb_s=60.0),
}


@pytest.mark.parametrize("method", ["sim", "analytic"])
@pytest.mark.parametrize("bench", benchmark_names())
class TestPlatformDiskKey:
    """The platform's own disk is keyed as ``DiskSpec(platform.disk)``,
    so Table 3's desktop-disk baseline on emb1 is emb1's own disk."""

    def test_baseline_model_scores_as_the_platform_disk(
        self, bench, method, config
    ):
        """What the shared key relies on: a model built from the baseline
        spec scores what the platform's own disk path does."""
        plat, workload = platform("emb1"), make_workload(bench)
        model = disk_configuration("baseline").disk_spec(bench).build()
        assert performance_module._score(
            plat, workload, config, model, 1.0, method
        ) == performance_module._score(plat, workload, config, None, 1.0, method)

    @pytest.mark.parametrize("baseline_first", [True, False],
                             ids=["baseline-first", "platform-first"])
    def test_second_score_simulates_nothing(
        self, bench, method, baseline_first, config, monkeypatch
    ):
        baseline = disk_configuration("baseline")
        first, second = (baseline, None) if baseline_first else (None, baseline)
        scored = _score(first, bench, config, method=method)
        before = len(sweep_module._PERF_MEMO)
        calls = _count_runs(monkeypatch)
        assert _score(second, bench, config, method=method) == scored
        assert calls == []
        assert len(sweep_module._PERF_MEMO) == before


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("change", OWN_DISK_CHANGES.values(),
                         ids=list(OWN_DISK_CHANGES))
def test_own_disk_service_fields_miss(bench, change, config, monkeypatch):
    _score(None, bench, config)
    spec = DiskSpec(dataclasses.replace(platform("emb1").disk, **change))
    before = len(sweep_module._PERF_MEMO)
    calls = _count_runs(monkeypatch)
    _score_spec(spec, bench, config)
    assert len(sweep_module._PERF_MEMO) == before + 1
    assert calls


def _count_completions(monkeypatch):
    """Patch ServerSimulator.run to count each run's completions as the
    benchmark counts them (warm-up plus measured)."""
    completions = []
    real_run = sweep_module.ServerSimulator.run

    def counting(self, **kwargs):
        result = real_run(self, **kwargs)
        completions.append(self._config.warmup_requests
                           + result.measured_requests)
        return result

    monkeypatch.setattr(sweep_module.ServerSimulator, "run", counting)
    return completions


def test_srvr1_websearch_work_count(monkeypatch):
    """The completions one default-config score simulates.  Running every
    failing population in full takes 5 x 2,800 = 14,000; stopping each at
    its deciding completion takes 7,529."""
    completions = _count_completions(monkeypatch)
    measure_performance(platform("srvr1"), make_workload("websearch"),
                        config=SimConfig(seed=1))
    assert len(completions) == 5
    assert sum(completions) <= 7_529


def test_emb1_remote_laptop_websearch_work_count(monkeypatch):
    """The same behind Table 3's stateless SAN disk model: 14,000
    completions in full, 11,408 with its failing populations stopped."""
    completions = _count_completions(monkeypatch)
    spec = disk_configuration("remote-laptop").disk_spec("websearch")
    measure_performance(platform("emb1"), make_workload("websearch"),
                        config=SimConfig(seed=1), disk_spec=spec)
    assert len(completions) == 5
    assert sum(completions) <= 11_408
