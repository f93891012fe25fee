"""Tests for workload abstractions and the calibration invariant."""

import pytest

from repro.workloads.base import PopulationPolicy, Request, ResourceDemand
from repro.workloads.suite import BENCHMARK_SUITE, benchmark_names, make_workload


class TestResourceDemand:
    def test_defaults_are_zero(self):
        d = ResourceDemand()
        assert d.cpu_ms_ref == 0.0
        assert d.cpu_parallelism == 1
        assert not d.disk_write

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            ResourceDemand(cpu_ms_ref=-1.0)
        with pytest.raises(ValueError):
            ResourceDemand(net_bytes=-1.0)
        with pytest.raises(ValueError):
            ResourceDemand(cpu_parallelism=0)

    def test_scaled_preserves_flags(self):
        d = ResourceDemand(
            cpu_ms_ref=10.0, disk_bytes=100.0, disk_write=True, cpu_parallelism=3
        )
        s = d.scaled(0.5)
        assert s.cpu_ms_ref == 5.0
        assert s.disk_bytes == 50.0
        assert s.disk_write
        assert s.cpu_parallelism == 3

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceDemand(cpu_ms_ref=1.0).scaled(-1.0)


class TestPopulationPolicy:
    def test_fixed(self):
        assert PopulationPolicy(fixed=96).population(8) == 96

    def test_per_core(self):
        assert PopulationPolicy(per_core=4).population(8) == 32

    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            PopulationPolicy()
        with pytest.raises(ValueError):
            PopulationPolicy(fixed=1, per_core=1)

    def test_positive_values(self):
        with pytest.raises(ValueError):
            PopulationPolicy(fixed=0)
        with pytest.raises(ValueError):
            PopulationPolicy(per_core=4).population(0)


class TestSuite:
    def test_five_benchmarks_in_paper_order(self):
        assert benchmark_names() == [
            "websearch",
            "webmail",
            "ytube",
            "mapred-wc",
            "mapred-wr",
        ]

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            make_workload("sort")

    @pytest.mark.parametrize("name", list(BENCHMARK_SUITE))
    def test_sampler_means_match_calibrated_means(self, name):
        """The central calibration invariant: every workload's empirical
        mean demand equals the profile's calibrated mean demand."""
        workload = make_workload(name)
        target = workload.mean_demand()
        measured = workload.estimate_mean_demand(samples=8000)
        for attr in ("cpu_ms_ref", "mem_ms_ref", "disk_ios", "disk_bytes", "net_bytes"):
            expected = getattr(target, attr)
            got = getattr(measured, attr)
            assert got == pytest.approx(expected, rel=0.08), (name, attr)

    @pytest.mark.parametrize("name", list(BENCHMARK_SUITE))
    def test_samples_are_fresh_requests(self, name):
        import random

        workload = make_workload(name)
        rng = random.Random(0)
        requests = [workload.sample(rng) for _ in range(10)]
        assert all(isinstance(r, Request) for r in requests)
        # Demands vary across draws (statistical generator, not constant).
        cpus = {r.demand.cpu_ms_ref for r in requests}
        assert len(cpus) > 1

    @pytest.mark.parametrize("name", list(BENCHMARK_SUITE))
    def test_memoized_workload_draws_like_a_fresh_build(self, name):
        """``make_workload`` hands every caller one shared instance, and
        that instance samples bit-for-bit like a privately built one."""
        import random

        shared = make_workload(name)
        assert make_workload(name) is shared
        fresh = BENCHMARK_SUITE[name]()
        shared_rng, fresh_rng = random.Random(3), random.Random(3)
        assert ([shared.sample(shared_rng).demand for _ in range(200)]
                == [fresh.sample(fresh_rng).demand for _ in range(200)])
        if name == "websearch":
            shared_rng, fresh_rng = random.Random(3), random.Random(3)
            assert ([shared.fast_demand(shared_rng) for _ in range(200)]
                    == [fresh.fast_demand(fresh_rng) for _ in range(200)])

    def test_estimate_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            make_workload("websearch").estimate_mean_demand(samples=0)
