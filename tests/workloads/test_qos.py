"""Tests for QoS specs and trackers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.qos import QosSpec, QosTracker


class TestQosSpec:
    def test_describe_matches_paper_style(self):
        spec = QosSpec(limit_ms=500.0, percentile=0.95)
        assert spec.describe() == ">95% of requests take <0.5 seconds"

    def test_validation(self):
        with pytest.raises(ValueError):
            QosSpec(limit_ms=0.0)
        with pytest.raises(ValueError):
            QosSpec(limit_ms=100.0, percentile=1.0)
        with pytest.raises(ValueError):
            QosSpec(limit_ms=100.0, percentile=0.0)


class TestQosTracker:
    def test_percentile_nearest_rank(self):
        tracker = QosTracker(QosSpec(limit_ms=100.0, percentile=0.5))
        for v in (10.0, 20.0, 30.0, 40.0):
            tracker.record(v)
        assert tracker.percentile_ms() == 20.0  # ceil(0.5*4) = 2nd smallest
        assert tracker.percentile_ms(0.95) == 40.0

    def test_satisfied_boundary(self):
        tracker = QosTracker(QosSpec(limit_ms=30.0, percentile=0.5))
        for v in (10.0, 20.0, 30.0, 40.0):
            tracker.record(v)
        assert tracker.satisfied()  # p50 = 20 <= 30

    def test_violation_rate(self):
        tracker = QosTracker(QosSpec(limit_ms=25.0))
        for v in (10.0, 20.0, 30.0, 40.0):
            tracker.record(v)
        assert tracker.violation_rate() == pytest.approx(0.5)

    def test_empty_tracker(self):
        tracker = QosTracker(QosSpec(limit_ms=100.0))
        assert tracker.satisfied()
        assert tracker.violation_rate() == 0.0
        with pytest.raises(ValueError):
            tracker.percentile_ms()

    def test_negative_sample_rejected(self):
        tracker = QosTracker(QosSpec(limit_ms=100.0))
        with pytest.raises(ValueError):
            tracker.record(-1.0)
        with pytest.raises(ValueError):
            tracker.record_many([5.0, -1.0, 7.0])

    def test_record_many_equals_one_record_per_sample(self):
        spec = QosSpec(limit_ms=25.0, percentile=0.5)
        batch, single = QosTracker(spec), QosTracker(spec)
        batch.record_many([40.0, 10.0, 30.0])
        batch.record_many([])
        for v in (40.0, 10.0, 30.0):
            single.record(v)
        assert batch._samples == single._samples
        assert batch.percentile_ms() == single.percentile_ms() == 30.0

    def test_sort_follows_the_sample_count(self):
        """The sorted samples are reused until the count changes, also
        when samples are appended to ``_samples`` directly."""
        tracker = QosTracker(QosSpec(limit_ms=25.0, percentile=0.5))
        tracker.record_many([10.0, 20.0, 30.0, 40.0])
        assert tracker.percentile_ms() == 20.0
        assert tracker.satisfied()
        tracker._samples.append(50.0)
        tracker._samples.append(60.0)
        assert tracker.percentile_ms() == 30.0
        assert not tracker.satisfied()
        tracker.record(5.0)
        assert tracker.percentile_ms() == 30.0
        assert tracker.percentile_ms(0.2) == 10.0

    @given(
        samples=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1
        ),
        percentile=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentile_is_an_observed_sample_and_bounds_mass(
        self, samples, percentile
    ):
        tracker = QosTracker(QosSpec(limit_ms=1.0, percentile=percentile))
        for s in samples:
            tracker.record(s)
        value = tracker.percentile_ms()
        assert value in samples
        at_or_below = sum(1 for s in samples if s <= value) / len(samples)
        assert at_or_below >= percentile - 1e-9
