"""Tests for workload abstractions and the calibration invariant."""

import random

import pytest

from repro.workloads import mapreduce, webmail, websearch, ytube
from repro.workloads._calibrate import UNIT_FACTORS, calibration_factors
from repro.workloads.base import PopulationPolicy, Request, ResourceDemand
from repro.workloads.suite import BENCHMARK_SUITE, benchmark_names, make_workload
from tests.workloads import (
    reference_calibrate,
    reference_mapreduce,
    reference_webmail,
    reference_websearch,
    reference_ytube,
)

#: Each benchmark's reference build: the Request-building sampler and
#: calibration probe the tuple draws replaced.
REFERENCE_BUILDS = {
    "websearch": reference_websearch.make_websearch,
    "webmail": reference_webmail.make_webmail,
    "ytube": reference_ytube.make_ytube,
    "mapred-wc": reference_mapreduce.make_mapred_wc,
    "mapred-wr": reference_mapreduce.make_mapred_wr,
}

#: Each benchmark's (structural draw, reference structural sampler,
#: calibrated mean).
STRUCTURAL_MODELS = {
    "websearch": (
        lambda: websearch._QueryModel().draw(UNIT_FACTORS),
        reference_websearch._QueryModel,
        websearch.MEAN_DEMAND,
    ),
    "webmail": (
        lambda: webmail._SessionModel().draw(UNIT_FACTORS),
        reference_webmail._SessionModel,
        webmail.MEAN_DEMAND,
    ),
    "ytube": (
        lambda: ytube._StreamModel().draw(UNIT_FACTORS),
        reference_ytube._StreamModel,
        ytube.MEAN_DEMAND,
    ),
    "mapred-wc": (
        lambda: mapreduce._TaskModel(False, 4.0).draw(UNIT_FACTORS),
        lambda: reference_mapreduce._TaskModel(False, 4.0),
        mapreduce.WC_MEAN_DEMAND,
    ),
    "mapred-wr": (
        lambda: mapreduce._TaskModel(True, 4.0).draw(UNIT_FACTORS),
        lambda: reference_mapreduce._TaskModel(True, 4.0),
        mapreduce.WR_MEAN_DEMAND,
    ),
}


class TestFastDemandPath:
    """Every benchmark's tuple draw replicates its reference ``Request``
    sampler bitwise (``tests/workloads/reference_*.py``).

    The simulation kernels read ``fast_demand`` instead of ``sample``;
    their results are unchanged only if both give the reference's values
    and kind AND consume the same draws (the RNG state must match
    afterwards, so every later draw agrees too).
    """

    @pytest.mark.parametrize("name", benchmark_names())
    def test_values_and_rng_state_match_reference(self, name):
        workload = make_workload(name)
        reference = REFERENCE_BUILDS[name]()
        for seed in range(20):
            ref_rng, fast_rng, sample_rng = (random.Random(seed) for _ in range(3))
            for _ in range(50):
                expected = reference.sample(ref_rng)
                d = expected.demand
                assert workload.fast_demand(fast_rng) == (
                    d.cpu_ms_ref, d.mem_ms_ref, d.disk_ios, d.disk_bytes,
                    d.net_bytes, d.disk_write, d.cpu_parallelism, expected.kind,
                )
                assert workload.sample(sample_rng) == expected
                assert fast_rng.getstate() == ref_rng.getstate()
                assert sample_rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("name", benchmark_names())
    def test_calibration_factors_match_reference_probe(self, name):
        draw, reference_model, target = STRUCTURAL_MODELS[name]
        assert calibration_factors(draw(), target) == (
            reference_calibrate.calibration_factors(reference_model(), target)
        )


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
