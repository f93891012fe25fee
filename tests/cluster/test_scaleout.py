"""Tests of the Amdahl/partitioning scale-out model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.scaleout import ScaleOutModel, amdahl_speedup


class TestAmdahlSpeedup:
    def test_no_serial_work_is_linear(self):
        assert amdahl_speedup(8, 0.0) == pytest.approx(8.0)

    def test_all_serial_work_is_flat(self):
        assert amdahl_speedup(1000, 1.0) == pytest.approx(1.0)

    def test_classic_value(self):
        # 10% serial, 10-way: 1 / (0.1 + 0.9/10) = 5.26x
        assert amdahl_speedup(10, 0.1) == pytest.approx(5.263, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            amdahl_speedup(0, 0.1)
        with pytest.raises(ValueError):
            amdahl_speedup(4, 1.5)

    @given(
        n=st.integers(min_value=1, max_value=100_000),
        serial=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_speedup_bounded(self, n, serial):
        s = amdahl_speedup(n, serial)
        assert 1.0 - 1e-9 <= s <= n + 1e-9
        if serial > 0:
            assert s <= 1.0 / serial + 1e-9


class TestScaleOutModel:
    def test_single_partition_is_lossless_without_serial_work(self):
        model = ScaleOutModel(serial_fraction=0.0)
        assert model.partition_efficiency(1) == pytest.approx(1.0)

    def test_efficiency_declines_with_partitions(self):
        model = ScaleOutModel()
        effs = [model.partition_efficiency(n) for n in (1, 4, 16, 64, 256)]
        assert all(a >= b for a, b in zip(effs, effs[1:]))

    def test_cluster_throughput_grows_then_saturates(self):
        model = ScaleOutModel(serial_fraction=0.01)
        xs = [model.cluster_throughput(n, 1.0) for n in (1, 10, 100)]
        assert xs[1] > xs[0]

    def test_equivalence_ratio_exceeds_naive(self):
        """Partitioning overheads make small servers look worse than the
        naive capability ratio -- the paper's section 4 warning."""
        model = ScaleOutModel(
            serial_fraction=0.001, coordination_overhead=0.008,
            datastructure_inflation=0.007,
        )
        # Small servers at 1/6 the throughput of big ones.
        ratio = model.equivalence_ratio(1.0, 6.0, big_servers=100)
        assert ratio > 6.0

    def test_equivalence_ratio_can_be_unreachable(self):
        """With a hard serial fraction, weak servers can never match."""
        model = ScaleOutModel(serial_fraction=0.05)
        assert model.equivalence_ratio(1.0, 20.0, big_servers=50) == float("inf")

    def test_clean_sharding_keeps_ratio_near_naive(self):
        model = ScaleOutModel(
            serial_fraction=0.0, coordination_overhead=0.001,
            datastructure_inflation=0.001,
        )
        ratio = model.equivalence_ratio(1.0, 2.0, big_servers=100)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleOutModel(serial_fraction=-0.1)
        with pytest.raises(ValueError):
            ScaleOutModel(coordination_overhead=-1.0)
        model = ScaleOutModel()
        with pytest.raises(ValueError):
            model.partition_efficiency(0)
        with pytest.raises(ValueError):
            model.cluster_throughput(4, -1.0)
        with pytest.raises(ValueError):
            model.equivalence_ratio(0.0, 1.0, 10)
