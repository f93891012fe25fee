"""Process-wide sweep memoization must be invisible in its results:
``QosSweep``'s per-point memo in ``SweepResult``, and
``measure_performance``'s whole-sweep memo in ``PerformanceResult``."""

import dataclasses
import pickle

import pytest

import repro.simulator.sweep as sweep_module
from repro.flashcache.analysis import DISK_CONFIGURATIONS, flash_only_configuration
from repro.platforms.catalog import platform
from repro.simulator.performance import measure_performance
from repro.simulator.server_sim import SimConfig
from repro.simulator.sweep import QosSweep, clear_sweep_memo


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

    def counting(self):
        calls.append(1)
        return real_run(self)

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
    from repro.workloads.suite import make_workload

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
    from repro.workloads.suite import make_workload

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
        other_disk = DISK_CONFIGURATIONS[1] if disk is None else None
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
