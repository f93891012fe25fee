"""Latency histograms, time-bucketed series, and availability tracking.

Lightweight telemetry for inspecting simulation runs: a logarithmic
latency histogram (constant relative resolution, like HdrHistogram's
coarse mode), a bucketed time series for utilization/throughput
timelines, and an up/down interval tracker that turns fault-injection
events into downtime and availability numbers.  All are pure
accumulators, usable inside or outside the simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple


class HistogramSnapshot(NamedTuple):
    """Frozen bucket state of a :class:`LatencyHistogram` at one instant.

    Taken with :meth:`LatencyHistogram.snapshot` and consumed by
    :meth:`LatencyHistogram.percentile_since` to answer windowed queries ("p95 of
    the samples recorded since the last evaluation") off one cumulative
    histogram -- the pattern the fail-slow peer-comparison detector uses
    so per-server latency state lives in exactly one accumulator.  A
    NamedTuple rather than a frozen dataclass: snapshots are taken on
    the detector's evaluation path, and frozen-dataclass construction
    pays an ``object.__setattr__`` per field.
    """

    counts: Tuple[int, ...]
    total: int
    sum_ms: float


#: :meth:`LatencyHistogram.record_many` batches below this many values
#: are recorded one :meth:`~LatencyHistogram.record` call at a time.
_SMALL_BATCH = 64


class LatencyHistogram:
    """Log-bucketed histogram with percentile queries.

    Buckets grow geometrically by ``growth`` per step starting at
    ``min_value_ms``; each recorded value lands in one bucket, so
    percentile answers carry at most one bucket of relative error.
    """

    def __init__(
        self,
        min_value_ms: float = 0.01,
        max_value_ms: float = 600_000.0,
        growth: float = 1.15,
    ):
        if min_value_ms <= 0 or max_value_ms <= min_value_ms:
            raise ValueError("need 0 < min < max")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self._min = min_value_ms
        self._log_growth = math.log(growth)
        self._bucket_count = (
            int(math.log(max_value_ms / min_value_ms) / self._log_growth) + 2
        )
        self._counts = [0] * self._bucket_count
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        # Highest populated bucket index (-1 when empty): lets windowed
        # percentile queries walk down from the occupied top instead of
        # up through the whole bucket range.
        self._hi = -1

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """(low, high) bounds of one bucket, ms."""
        if not 0 <= index < self._bucket_count:
            raise IndexError(f"bucket {index} out of range")
        if index == 0:
            return (0.0, self._min)
        low = self._min * math.exp(self._log_growth * (index - 1))
        return (low, low * math.exp(self._log_growth))

    def record(self, value_ms: float) -> None:
        # The per-sample hot path (every traced attempt and every
        # fail-slow observation lands here): ``_bucket`` is inlined and
        # the branches replace ``min``/``max`` calls.
        if value_ms < 0:
            raise ValueError("latency must be >= 0")
        if value_ms <= self._min:
            index = 0
        else:
            index = int(math.log(value_ms / self._min) / self._log_growth) + 1
            last = self._bucket_count - 1
            if index > last:
                index = last
        self._counts[index] += 1
        if index > self._hi:
            self._hi = index
        self._total += 1
        self._sum += value_ms
        if value_ms > self._max:
            self._max = value_ms

    def record_many(self, values_ms) -> None:
        """Record a whole array of latencies in one vectorized pass.

        The cluster engine (:mod:`repro.cluster.engine`)
        buffers response latencies and flushes them in one array;
        bucketing them one ``record`` call at a time would hand back
        much of the kernel speedup.  Bucket indices are computed with ``numpy.log`` --
        identical to :meth:`record` except for values landing exactly
        on a bucket edge (measure-zero for continuous latencies); the
        count/max accumulators are exact, and the running sum is
        accumulated left-to-right (not ``numpy.sum``'s pairwise
        association) so a batched flush leaves the histogram
        bit-identical to per-sample :meth:`record` calls.  Batches
        shorter than :data:`_SMALL_BATCH` take :meth:`record` per sample:
        below that, numpy's per-call overhead costs more than the loop
        (a fail-slow detector flushes a handful of samples per server at
        every evaluation).
        """
        if len(values_ms) < _SMALL_BATCH:
            if len(values_ms) and min(values_ms) < 0:
                raise ValueError("latency must be >= 0")
            record = self.record
            for value in values_ms:
                record(value)
            return
        import numpy as np

        values = np.asarray(values_ms, dtype=np.float64)
        if values.size == 0:
            return
        if values.min() < 0:
            raise ValueError("latency must be >= 0")
        index = np.zeros(values.shape, dtype=np.intp)
        big = values > self._min
        if big.any():
            index[big] = (
                np.log(values[big] / self._min) / self._log_growth
            ).astype(np.intp) + 1
            np.clip(index, 0, self._bucket_count - 1, out=index)
        counts = np.bincount(index, minlength=self._bucket_count)
        own = self._counts
        for i in np.nonzero(counts)[0]:
            own[i] += int(counts[i])
        hi = int(index.max())
        if hi > self._hi:
            self._hi = hi
        self._total += int(values.size)
        s = self._sum
        for v in values.tolist():
            s += v
        self._sum = s
        peak = float(values.max())
        if peak > self._max:
            self._max = peak

    @property
    def count(self) -> int:
        return self._total

    @property
    def mean_ms(self) -> float:
        return self._sum / self._total if self._total else 0.0

    @property
    def max_ms(self) -> float:
        return self._max

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram, losslessly (returns self).

        Merging is exact only when both histograms share one bucket
        layout, so a mismatched ``min_value_ms``/``max_value_ms``/
        ``growth`` configuration raises instead of silently rebinning.
        Used by the parallel runner and the metrics registry to combine
        per-worker / per-server accumulators.
        """
        if not isinstance(other, LatencyHistogram):
            raise TypeError("can only merge another LatencyHistogram")
        if (
            self._min != other._min
            or self._log_growth != other._log_growth
            or self._bucket_count != other._bucket_count
        ):
            raise ValueError(
                "cannot merge histograms with different bucket configurations"
            )
        for index, count in enumerate(other._counts):
            if count:
                self._counts[index] += count
        self._total += other._total
        self._sum += other._sum
        self._max = max(self._max, other._max)
        self._hi = max(self._hi, other._hi)
        return self

    def snapshot(self) -> HistogramSnapshot:
        """Frozen copy of the current bucket state (for :meth:`percentile_since`)."""
        return HistogramSnapshot(
            counts=tuple(self._counts), total=self._total, sum_ms=self._sum
        )

    def percentile_since(
        self, snapshot: HistogramSnapshot, percentile: float
    ) -> float:
        """The ``percentile`` of the samples recorded after ``snapshot``.

        The fail-slow detector scores every server's fresh window once
        per evaluation interval; materialising a full delta histogram
        per server per tick dominated its overhead budget.  This walks
        bucket-count deltas *downward from the highest populated
        bucket*, so a high percentile is found within the few occupied
        top buckets instead of a pass over the whole bucket range.
        The window's ``max_ms`` is inherited from the cumulative
        histogram (an upper bound -- the true window maximum is not
        recoverable from bucket counts), which only matters for the
        overflow bucket's percentile clamp.  Raises when ``snapshot``
        came from a histogram with a different bucket layout or a later
        state than ``self``, or when the window is empty.  Its oracle,
        which materializes the window as a histogram, is ``since`` in
        ``tests/simulator/test_telemetry.py``.
        """
        if not 0 < percentile <= 1:
            raise ValueError("percentile must be in (0, 1]")
        if len(snapshot.counts) != self._bucket_count:
            raise ValueError("snapshot has a different bucket layout")
        total = self._total - snapshot.total
        if total < 0:
            raise ValueError("snapshot is newer than the histogram")
        if total == 0:
            raise ValueError("histogram is empty")
        # Bucket B holds the percentile sample iff cum(0..B-1) < target
        # <= cum(0..B); equivalently B is the highest bucket whose
        # suffix sum reaches total - target + 1, which the descending
        # walk finds first.
        target = math.ceil(percentile * total)
        need = total - target + 1
        counts = self._counts
        then = snapshot.counts
        seen = 0
        for index in range(self._hi, -1, -1):
            seen += counts[index] - then[index]
            if seen >= need:
                if index == self._bucket_count - 1:
                    return self._max
                return min(self.bucket_bounds(index)[1], self._max)
        return self._max  # pragma: no cover - defensive

    _NO_DEFAULT = object()

    def percentile_ms(self, percentile: float, default=_NO_DEFAULT) -> float:
        """Upper bound of the bucket holding the percentile sample.

        An empty histogram raises ``ValueError`` unless ``default`` is
        given, in which case it is returned instead -- the escape hatch
        report generators use so an idle measurement window (no samples)
        renders as "n/a" rather than crashing the whole report.
        """
        if not 0 < percentile <= 1:
            raise ValueError("percentile must be in (0, 1]")
        if self._total == 0:
            if default is not LatencyHistogram._NO_DEFAULT:
                return default
            raise ValueError("histogram is empty")
        target = math.ceil(percentile * self._total)
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= target:
                if index == self._bucket_count - 1:
                    # Overflow bucket: its nominal bound can sit below the
                    # clamped samples; the observed max is the honest answer.
                    return self._max
                return min(self.bucket_bounds(index)[1], self._max)
        return self._max  # pragma: no cover - defensive


class TimeSeries:
    """Fixed-width time buckets accumulating a value (e.g. completions).

    A slotted plain class (not a dataclass): :meth:`record` sits on the
    cluster simulator's per-completion hot path, and slots keep the
    instance small and its attribute loads cheap.  Equality compares
    content (width and buckets), which the old field-only dataclass
    ``__eq__`` did not.
    """

    __slots__ = ("bucket_ms", "_buckets")

    def __init__(self, bucket_ms: float):
        if bucket_ms <= 0:
            raise ValueError("bucket width must be positive")
        self.bucket_ms = bucket_ms
        self._buckets: Dict[int, float] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries(bucket_ms={self.bucket_ms!r}, buckets={len(self._buckets)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.bucket_ms == other.bucket_ms and self._buckets == other._buckets
        )

    def record(self, time_ms: float, value: float = 1.0) -> None:
        if time_ms < 0:
            raise ValueError("time must be >= 0")
        index = int(time_ms / self.bucket_ms)
        self._buckets[index] = self._buckets.get(index, 0.0) + value

    def series(self) -> List[Tuple[float, float]]:
        """(bucket start ms, accumulated value), gaps filled with zero."""
        if not self._buckets:
            return []
        last = max(self._buckets)
        return [
            (i * self.bucket_ms, self._buckets.get(i, 0.0))
            for i in range(last + 1)
        ]

    def window_sum(self, start_ms: float, end_ms: float) -> float:
        """Total accumulated value in buckets starting in [start, end)."""
        if end_ms < start_ms:
            raise ValueError("window must be ordered")
        first = int(start_ms / self.bucket_ms)
        last = int(end_ms / self.bucket_ms)
        return sum(
            value
            for index, value in self._buckets.items()
            if first <= index < last
        )

    def window_mean_rate_per_s(self, start_ms: float, end_ms: float) -> float:
        """Mean per-second rate over [start, end) (0 for an empty window)."""
        span_ms = end_ms - start_ms
        if span_ms <= 0:
            return 0.0
        return self.window_sum(start_ms, end_ms) / (span_ms / 1000.0)


@dataclass
class EntityAvailability:
    """Summarized up/down history of one tracked entity."""

    name: str
    downtime_ms: float
    incidents: int
    observed_ms: float

    @property
    def availability(self) -> float:
        """Fraction of observed time spent up (1.0 if never observed)."""
        if self.observed_ms <= 0:
            return 1.0
        return 1.0 - min(self.downtime_ms / self.observed_ms, 1.0)


class AvailabilityTracker:
    """Accumulates up/down transitions into downtime and availability.

    Entities (servers, blades, caches...) report state changes through
    :meth:`observe`; unterminated intervals are closed by
    :meth:`finalize` at the end of the observation window.  Repeated
    observations of the same state are idempotent, so callers can report
    every health evaluation rather than only edges.
    """

    def __init__(self) -> None:
        #: entity -> (currently up, time of last transition)
        self._state: Dict[str, Tuple[bool, float]] = {}
        self._start: Dict[str, float] = {}
        self._downtime: Dict[str, float] = {}
        self._incidents: Dict[str, int] = {}
        self._end: Dict[str, float] = {}

    def observe(self, name: str, time_ms: float, up: bool) -> None:
        """Record that ``name`` is up/down as of ``time_ms``."""
        if time_ms < 0:
            raise ValueError("time must be >= 0")
        if name not in self._state:
            self._state[name] = (up, time_ms)
            self._start[name] = time_ms
            self._downtime[name] = 0.0
            self._incidents[name] = 0 if up else 1
            return
        was_up, since = self._state[name]
        if time_ms < since:
            raise ValueError("observations must be time-ordered per entity")
        if up == was_up:
            return
        if not was_up:
            self._downtime[name] += time_ms - since
        else:
            self._incidents[name] += 1
        self._state[name] = (up, time_ms)

    def finalize(self, end_ms: float) -> None:
        """Close every open interval at ``end_ms``."""
        for name, (up, since) in list(self._state.items()):
            if end_ms < since:
                raise ValueError("end time precedes a recorded transition")
            if not up:
                self._downtime[name] += end_ms - since
                self._state[name] = (up, end_ms)
            self._end[name] = end_ms

    def entity(self, name: str) -> EntityAvailability:
        """Summary for one entity (KeyError if never observed)."""
        end = self._end.get(name, self._state[name][1])
        return EntityAvailability(
            name=name,
            downtime_ms=self._downtime[name],
            incidents=self._incidents[name],
            observed_ms=max(end - self._start[name], 0.0),
        )

    def mean_availability(self, prefix: str = "") -> float:
        """Mean availability across entities whose name has ``prefix``."""
        summaries = [
            self.entity(name) for name in self._state if name.startswith(prefix)
        ]
        if not summaries:
            return 1.0
        return sum(s.availability for s in summaries) / len(summaries)
