"""Tests (incl. property-based) of the efficiency metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    EfficiencyMetrics,
    METRIC_ATTRIBUTES,
    harmonic_mean,
)


def _metrics(system="s", performance=100.0, power=100.0, inf=1000.0, pc=800.0):
    return EfficiencyMetrics(
        system=system,
        benchmark="bench",
        performance=performance,
        power_w=power,
        infrastructure_usd=inf,
        power_cooling_usd=pc,
    )


class TestHarmonicMean:
    def test_known_value(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_constant_sequence(self):
        assert harmonic_mean([5.0] * 4) == pytest.approx(5.0)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean([])
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_min_and_arithmetic_mean(self, values):
        h = harmonic_mean(values)
        assert min(values) - 1e-9 <= h <= sum(values) / len(values) + 1e-9

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_under_scaling(self, values, factor):
        scaled = harmonic_mean([v * factor for v in values])
        assert scaled == pytest.approx(harmonic_mean(values) * factor, rel=1e-6)


class TestEfficiencyMetrics:
    def test_derived_ratios(self):
        m = _metrics()
        assert m.tco_usd == 1800.0
        assert m.perf_per_watt == pytest.approx(1.0)
        assert m.perf_per_inf_usd == pytest.approx(0.1)
        assert m.perf_per_pc_usd == pytest.approx(0.125)
        assert m.perf_per_tco_usd == pytest.approx(100 / 1800)

    def test_validation(self):
        with pytest.raises(ValueError):
            _metrics(performance=-1.0)
        with pytest.raises(ValueError):
            _metrics(power=0.0)
        with pytest.raises(ValueError):
            _metrics(inf=0.0)

    def test_metric_attribute_registry_resolves(self):
        m = _metrics()
        for display, attribute in METRIC_ATTRIBUTES.items():
            assert getattr(m, attribute) >= 0, display
