"""Tests (incl. property-based) of the telemetry accumulators."""

import random
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.telemetry import (
    AvailabilityTracker,
    HistogramSnapshot,
    LatencyHistogram,
    TimeSeries,
)


def since(hist: LatencyHistogram, snapshot: HistogramSnapshot) -> LatencyHistogram:
    """The window of samples recorded after ``snapshot`` was taken.

    Returns a new histogram holding exactly the per-bucket count
    difference, so windowed percentiles come from one cumulative
    accumulator instead of a second reset-on-read copy.  The window's
    ``max_ms`` is inherited from the cumulative histogram (an upper
    bound -- the true window maximum is not recoverable from bucket
    counts), which only matters for the overflow bucket's percentile
    clamp.  Raises when ``snapshot`` came from a histogram with a
    different bucket layout or a later state than ``hist``.  The oracle
    of :meth:`LatencyHistogram.percentile_since`.
    """
    if len(snapshot.counts) != hist._bucket_count:
        raise ValueError("snapshot has a different bucket layout")
    window = LatencyHistogram.__new__(LatencyHistogram)
    window._min = hist._min
    window._log_growth = hist._log_growth
    window._bucket_count = hist._bucket_count
    deltas = [0] * hist._bucket_count
    for index, (now, then) in enumerate(zip(hist._counts, snapshot.counts)):
        delta = now - then
        if delta < 0:
            raise ValueError("snapshot is newer than the histogram")
        deltas[index] = delta
    window._counts = deltas
    window._total = hist._total - snapshot.total
    window._sum = hist._sum - snapshot.sum_ms
    window._max = hist._max
    window._hi = hist._hi
    return window


def nonzero_buckets(hist: LatencyHistogram) -> List[Tuple[float, float, int]]:
    """(low, high, count) for every populated bucket."""
    return [
        (*hist.bucket_bounds(i), count)
        for i, count in enumerate(hist._counts)
        if count
    ]


class TestLatencyHistogram:
    def test_counts_and_mean(self):
        hist = LatencyHistogram()
        for v in (1.0, 2.0, 3.0):
            hist.record(v)
        assert hist.count == 3
        assert hist.mean_ms == pytest.approx(2.0)
        assert hist.max_ms == 3.0

    def test_percentile_within_bucket_error(self):
        hist = LatencyHistogram(growth=1.1)
        rng = random.Random(1)
        values = [rng.expovariate(1.0 / 50.0) for _ in range(20_000)]
        for v in values:
            hist.record(v)
        values.sort()
        exact_p95 = values[int(0.95 * len(values))]
        assert hist.percentile_ms(0.95) == pytest.approx(exact_p95, rel=0.12)

    def test_percentile_never_exceeds_max(self):
        hist = LatencyHistogram()
        hist.record(42.0)
        assert hist.percentile_ms(1.0) <= 42.0 + 1e-9

    def test_nonzero_buckets_cover_all_samples(self):
        hist = LatencyHistogram()
        for v in (0.001, 5.0, 5.1, 1e7):  # includes under/overflow values
            hist.record(v)
        assert sum(c for _, _, c in nonzero_buckets(hist)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_value_ms=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-1.0)
        with pytest.raises(ValueError):
            hist.percentile_ms(0.5)  # empty
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile_ms(1.5)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=500
        ),
        percentile=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentile_bounds_the_right_mass(self, values, percentile):
        hist = LatencyHistogram()
        for v in values:
            hist.record(v)
        answer = hist.percentile_ms(percentile)
        at_or_below = sum(1 for v in values if v <= answer + 1e-12)
        assert at_or_below / len(values) >= percentile - 1e-9


class TestTimeSeries:
    def test_buckets_accumulate(self):
        series = TimeSeries(bucket_ms=100.0)
        series.record(10.0)
        series.record(90.0)
        series.record(150.0, value=2.0)
        assert series.series() == [(0.0, 2.0), (100.0, 2.0)]

    def test_gaps_filled_with_zero(self):
        series = TimeSeries(bucket_ms=10.0)
        series.record(5.0)
        series.record(35.0)
        assert series.series() == [(0.0, 1.0), (10.0, 0.0), (20.0, 0.0), (30.0, 1.0)]

    def test_empty_series(self):
        assert TimeSeries(bucket_ms=10.0).series() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(bucket_ms=0.0)
        with pytest.raises(ValueError):
            TimeSeries(bucket_ms=10.0).record(-1.0)


class TestAvailabilityTracker:
    def test_downtime_and_availability(self):
        tracker = AvailabilityTracker()
        tracker.observe("s0", 0.0, up=True)
        tracker.observe("s0", 600.0, up=False)
        tracker.observe("s0", 800.0, up=True)
        tracker.finalize(1000.0)
        entity = tracker.entity("s0")
        assert entity.downtime_ms == pytest.approx(200.0)
        assert entity.observed_ms == pytest.approx(1000.0)
        assert entity.availability == pytest.approx(0.8)
        assert entity.incidents == 1

    def test_repeated_observations_are_idempotent(self):
        tracker = AvailabilityTracker()
        tracker.observe("s0", 0.0, up=True)
        tracker.observe("s0", 100.0, up=True)
        tracker.observe("s0", 200.0, up=False)
        tracker.observe("s0", 300.0, up=False)
        tracker.observe("s0", 400.0, up=True)
        tracker.finalize(500.0)
        entity = tracker.entity("s0")
        assert entity.incidents == 1
        assert entity.downtime_ms == pytest.approx(200.0)

    def test_finalize_closes_open_downtime(self):
        tracker = AvailabilityTracker()
        tracker.observe("s0", 0.0, up=True)
        tracker.observe("s0", 900.0, up=False)
        tracker.finalize(1000.0)
        assert tracker.entity("s0").downtime_ms == pytest.approx(100.0)

    def test_never_down_entity_is_fully_available(self):
        tracker = AvailabilityTracker()
        tracker.observe("s0", 0.0, up=True)
        tracker.finalize(1000.0)
        entity = tracker.entity("s0")
        assert entity.availability == 1.0
        assert entity.incidents == 0

    def test_mean_availability_with_prefix(self):
        tracker = AvailabilityTracker()
        tracker.observe("rotation/s0", 0.0, up=True)
        tracker.observe("rotation/s1", 0.0, up=True)
        tracker.observe("rotation/s1", 500.0, up=False)
        tracker.observe("hw/blade", 0.0, up=False)
        tracker.finalize(1000.0)
        assert tracker.mean_availability("rotation/") == pytest.approx(0.75)
        assert tracker.mean_availability("nothing/") == 1.0

    def test_validation(self):
        tracker = AvailabilityTracker()
        with pytest.raises(ValueError):
            tracker.observe("s0", -1.0, up=True)
        tracker.observe("s0", 100.0, up=True)
        with pytest.raises(ValueError, match="time-ordered"):
            tracker.observe("s0", 50.0, up=False)
        with pytest.raises(ValueError, match="end time"):
            tracker.finalize(50.0)
        with pytest.raises(KeyError):
            tracker.entity("unknown")


class TestLatencyHistogramMerge:
    def test_merge_is_lossless(self):
        rng = random.Random(4)
        values = [rng.expovariate(1 / 50.0) for _ in range(400)]
        reference, left, right = (
            LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        )
        for index, value in enumerate(values):
            reference.record(value)
            (left if index % 2 else right).record(value)
        merged = left.merge(right)
        assert merged is left
        assert merged.count == reference.count
        assert merged.mean_ms == pytest.approx(reference.mean_ms)
        assert merged.max_ms == reference.max_ms
        for percentile in (0.5, 0.9, 0.99, 1.0):
            assert merged.percentile_ms(percentile) == (
                reference.percentile_ms(percentile)
            )

    def test_merge_with_empty_is_identity(self):
        hist = LatencyHistogram()
        hist.record(5.0)
        hist.merge(LatencyHistogram())
        assert hist.count == 1
        assert hist.percentile_ms(1.0) == 5.0

    def test_mismatched_bucket_configuration_raises(self):
        with pytest.raises(ValueError, match="bucket configurations"):
            LatencyHistogram().merge(LatencyHistogram(growth=1.3))
        with pytest.raises(ValueError, match="bucket configurations"):
            LatencyHistogram().merge(LatencyHistogram(min_value_ms=0.1))

    def test_merge_rejects_other_types(self):
        with pytest.raises(TypeError):
            LatencyHistogram().merge(TimeSeries(bucket_ms=100.0))


class TestPercentileDefault:
    def test_empty_histogram_raises_without_default(self):
        with pytest.raises(ValueError, match="empty"):
            LatencyHistogram().percentile_ms(0.99)

    def test_default_is_the_escape_hatch(self):
        assert LatencyHistogram().percentile_ms(0.99, default=None) is None
        assert LatencyHistogram().percentile_ms(0.99, default=0.0) == 0.0

    def test_default_is_ignored_when_populated(self):
        hist = LatencyHistogram()
        hist.record(10.0)
        assert hist.percentile_ms(0.99, default=None) is not None

    def test_invalid_percentile_still_raises_with_default(self):
        with pytest.raises(ValueError, match="percentile"):
            LatencyHistogram().percentile_ms(2.0, default=None)


class TestPercentileSince:
    """The allocation-free windowed percentile must equal the reference
    path (materialize the window with since(), then percentile_ms)."""

    def test_matches_since_then_percentile(self):
        hist = LatencyHistogram()
        for value in (1.0, 5.0, 9.0):
            hist.record(value)
        snap = hist.snapshot()
        for value in (2.0, 40.0, 40.0, 400.0, 0.3):
            hist.record(value)
        for percentile in (0.05, 0.5, 0.9, 0.95, 1.0):
            assert hist.percentile_since(snap, percentile) == (
                since(hist, snap).percentile_ms(percentile)
            )

    def test_empty_window_raises_like_reference(self):
        hist = LatencyHistogram()
        hist.record(3.0)
        snap = hist.snapshot()
        with pytest.raises(ValueError):
            hist.percentile_since(snap, 0.95)

    @settings(max_examples=60, deadline=None)
    @given(
        before=st.lists(
            st.floats(min_value=0.01, max_value=1e5), max_size=30
        ),
        after=st.lists(
            st.floats(min_value=0.01, max_value=1e5),
            min_size=1, max_size=30,
        ),
        percentile=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_equivalence_property(self, before, after, percentile):
        hist = LatencyHistogram()
        for value in before:
            hist.record(value)
        snap = hist.snapshot()
        for value in after:
            hist.record(value)
        assert hist.percentile_since(snap, percentile) == (
            since(hist, snap).percentile_ms(percentile)
        )


class TestRecordManyEquivalence:
    """A batched flush must be indistinguishable from per-sample record.

    The cohort cluster engine buffers every response latency and flushes
    once through ``record_many``; the scalar engine records per sample.
    Metrics-snapshot equality between the two engines rests on this.
    """

    @staticmethod
    def _assert_identical(a, b):
        assert a.count == b.count
        assert a.mean_ms == b.mean_ms  # bitwise: left-to-right sum
        assert a.max_ms == b.max_ms
        assert nonzero_buckets(a) == nonzero_buckets(b)
        if a.count:
            for p in (0.5, 0.95, 0.99, 1.0):
                assert a.percentile_ms(p) == b.percentile_ms(p)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=0, max_size=400
        ),
        split=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_matches_sequential(self, values, split):
        sequential = LatencyHistogram()
        for v in values:
            sequential.record(v)
        one_flush = LatencyHistogram()
        one_flush.record_many(values)
        chunked = LatencyHistogram()
        chunked.record_many(values[:split])
        chunked.record_many(values[split:])
        self._assert_identical(sequential, one_flush)
        self._assert_identical(sequential, chunked)

    def test_empty_flush_is_a_noop(self):
        hist = LatencyHistogram()
        hist.record(3.0)
        before = (hist.count, hist.mean_ms, hist.max_ms)
        hist.record_many([])
        assert (hist.count, hist.mean_ms, hist.max_ms) == before

    def test_negative_values_rejected(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record_many([1.0, -0.5])
        assert hist.count == 0
