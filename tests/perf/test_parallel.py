"""Parallel fan-out: order preservation, nesting guard, cached runs."""

import pytest

import repro.perf.parallel as parallel_module
from repro.perf.cache import ResultCache
from repro.perf.parallel import (
    default_jobs,
    in_worker,
    intra_jobs,
    pmap,
    run_experiments,
    set_intra_jobs,
)


def _square(x):
    return x * x


class TestPmap:
    def test_serial_path_matches_comprehension(self):
        assert pmap(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert pmap(_square, items, jobs=4) == [x * x for x in items]

    def test_single_item_runs_inline(self):
        assert pmap(_square, [7], jobs=8) == [49]

    def test_worker_flag_forces_serial(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "_IN_WORKER", True)
        assert in_worker()
        assert pmap(_square, [1, 2, 3], jobs=4) == [1, 4, 9]

    def test_empty_input(self):
        assert pmap(_square, [], jobs=4) == []


def _die_on_three(x):
    # Kill the worker process outright (not an exception): in the
    # parent, in_worker() is False, so the serial retry just computes.
    if x == 3 and in_worker():
        import os

        os._exit(1)
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * x


class TestPmapWorkerCrash:
    def test_dead_worker_items_are_recomputed_serially(self):
        items = list(range(6))
        with pytest.warns(RuntimeWarning, match="worker died"):
            results = pmap(_die_on_three, items, jobs=2)
        assert results == [x * x for x in items]

    def test_fn_exceptions_propagate_without_retry(self):
        with pytest.raises(ValueError, match="three is right out"):
            pmap(_raise_on_three, list(range(6)), jobs=2)


class TestIntraJobs:
    def test_set_and_read(self):
        try:
            set_intra_jobs(3)
            assert intra_jobs() == 3
        finally:
            set_intra_jobs(1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_intra_jobs(0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestRunExperiments:
    # table1 is analytic-only and fast; a good smoke target.
    def test_results_in_request_order(self):
        results = run_experiments(["table2", "table1"], jobs=1)
        assert [name for name, _ in results] == ["table2", "table1"]
        assert all(result is not None for _, result in results)

    def test_cache_hit_skips_recompute(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        first = run_experiments(["table1"], jobs=1, cache=cache)
        calls = []
        import repro.experiments.runner as runner_module

        real = runner_module.run_experiment

        def counting(name, method="sim", **kw):
            calls.append(name)
            return real(name, method=method, **kw)

        monkeypatch.setattr(runner_module, "run_experiment", counting)
        second = run_experiments(["table1"], jobs=1, cache=cache)
        assert calls == []
        assert first[0][1].payload_digest() == second[0][1].payload_digest()

    def test_overrides_produce_distinct_cache_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key("availability", {})
        tweaked = cache.key("availability", {"servers": 3})
        assert base != tweaked


class TestMergeTelemetry:
    def test_folds_shards_in_order(self):
        from repro.obs import MetricsRegistry
        from repro.perf.parallel import merge_telemetry

        shards = []
        for amount in (1.0, 2.0, 4.0):
            registry = MetricsRegistry()
            registry.counter("served").inc(amount)
            shards.append(registry)
        combined = merge_telemetry(shards)
        assert combined.value("served") == 7.0
        # The shards themselves are untouched (first one deep-copied).
        assert shards[0].value("served") == 1.0

    def test_skips_missing_shards(self):
        from repro.simulator.telemetry import LatencyHistogram
        from repro.perf.parallel import merge_telemetry

        left, right = LatencyHistogram(), LatencyHistogram()
        left.record(10.0)
        right.record(1000.0)
        combined = merge_telemetry([None, left, None, right])
        assert combined.count == 2
        assert left.count == 1  # input shard not mutated

    def test_all_missing_gives_none(self):
        from repro.perf.parallel import merge_telemetry

        assert merge_telemetry([]) is None
        assert merge_telemetry([None, None]) is None
