"""Tests of the ensemble-provisioning study."""

import random

import pytest

from repro.memsim.ensemble import MemoryDemandModel, ProvisioningStudy


def overflow_rate(study: ProvisioningStudy, provisioned_gb: float) -> float:
    """Fraction of time steps whose aggregate demand exceeds capacity."""
    if provisioned_gb < 0:
        raise ValueError("capacity must be >= 0")
    samples = study.aggregate_demand_samples()
    return sum(1 for s in samples if s > provisioned_gb) / len(samples)


@pytest.fixture(scope="module")
def study():
    return ProvisioningStudy(MemoryDemandModel(), servers=32, seed=7)


class TestMemoryDemandModel:
    def test_paths_stay_in_bounds(self):
        model = MemoryDemandModel()
        rng = random.Random(1)
        path = model.sample_path(500, rng)
        assert len(path) == 500
        assert all(model.floor_gb <= v <= model.peak_gb for v in path)

    def test_mean_reversion(self):
        model = MemoryDemandModel(mean_gb=2.0, stddev_gb=0.5, peak_gb=4.0)
        rng = random.Random(2)
        path = model.sample_path(5000, rng)
        assert sum(path) / len(path) == pytest.approx(2.0, abs=0.2)

    def test_persistence_makes_paths_smooth(self):
        rng = random.Random(3)
        smooth = MemoryDemandModel(persistence=0.98).sample_path(1000, rng)
        rng = random.Random(3)
        jumpy = MemoryDemandModel(persistence=0.0).sample_path(1000, rng)
        def mean_step(path):
            return sum(abs(a - b) for a, b in zip(path, path[1:])) / len(path)
        assert mean_step(smooth) < mean_step(jumpy)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryDemandModel(mean_gb=5.0, peak_gb=4.0)
        with pytest.raises(ValueError):
            MemoryDemandModel(stddev_gb=0.0)
        with pytest.raises(ValueError):
            MemoryDemandModel(persistence=1.0)
        with pytest.raises(ValueError):
            MemoryDemandModel().sample_path(0, random.Random(1))


class TestProvisioningStudy:
    def test_ensemble_needs_less_than_per_server_peak(self, study):
        """The paper's motivating claim: ensemble-level sizing saves DRAM."""
        assert study.ensemble_provisioned_gb() < study.per_server_provisioned_gb()
        assert study.savings() > 0.10

    def test_savings_support_the_dynamic_scheme(self, study):
        """Section 3.4 assumes total memory at 85% of baseline; the
        stochastic model shows that is conservative (>=15% savings)."""
        assert study.savings(overflow_tolerance=0.01) >= 0.15

    def test_tighter_tolerance_needs_more_memory(self, study):
        loose = study.ensemble_provisioned_gb(overflow_tolerance=0.1)
        tight = study.ensemble_provisioned_gb(overflow_tolerance=0.001)
        assert tight >= loose

    def test_overflow_rate_matches_tolerance(self, study):
        capacity = study.ensemble_provisioned_gb(overflow_tolerance=0.05)
        assert overflow_rate(study, capacity) <= 0.05 + 1e-9

    def test_more_servers_smooth_the_aggregate(self):
        """Statistical multiplexing: relative savings grow with pool size."""
        small = ProvisioningStudy(MemoryDemandModel(), servers=4, seed=11)
        large = ProvisioningStudy(MemoryDemandModel(), servers=64, seed=11)
        assert large.savings() > small.savings() - 0.02

    def test_deterministic_by_seed(self):
        a = ProvisioningStudy(MemoryDemandModel(), servers=8, seed=5).savings()
        b = ProvisioningStudy(MemoryDemandModel(), servers=8, seed=5).savings()
        assert a == b

    def test_validation(self, study):
        with pytest.raises(ValueError):
            ProvisioningStudy(MemoryDemandModel(), servers=0)
        with pytest.raises(ValueError):
            study.ensemble_provisioned_gb(overflow_tolerance=0.0)
        with pytest.raises(ValueError):
            overflow_rate(study, -1.0)


class TestRedundantProvisioning:
    def test_overhead_one_is_the_plain_ensemble(self, study):
        assert study.redundant_ensemble_provisioned_gb(1.0) == (
            study.ensemble_provisioned_gb()
        )
        assert study.redundant_savings(1.0) == study.savings()

    def test_overhead_multiplies_only_the_blade_slice(self, study):
        total = study.ensemble_provisioned_gb()
        local = study.servers * study.local_gb_per_server
        blade = total - local
        expected = local + blade * 2.0
        assert study.redundant_ensemble_provisioned_gb(2.0) == (
            pytest.approx(expected)
        )

    def test_savings_shrink_with_overhead(self, study):
        plain = study.redundant_savings(1.0)
        replica = study.redundant_savings(2.0)
        parity = study.redundant_savings(1.25)
        assert replica < parity < plain
        # Buying the blade many times over must eventually cost more
        # DRAM than statistical multiplexing saves.
        assert study.redundant_savings(8.0) < 0.0

    def test_invalid_overhead_rejected(self, study):
        with pytest.raises(ValueError):
            study.redundant_ensemble_provisioned_gb(0.9)
