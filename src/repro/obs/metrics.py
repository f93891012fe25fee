"""Labeled metrics registry backed by the telemetry accumulators.

Components register named, labeled instruments instead of growing
ad-hoc counter fields:

- :class:`Counter` -- monotonically increasing float;
- :class:`Gauge` -- last-written value (merge takes the max);
- histograms -- :class:`~repro.simulator.telemetry.LatencyHistogram`;
- series -- :class:`~repro.simulator.telemetry.TimeSeries`.

Instruments are keyed on ``(name, sorted labels)``; asking for the same
key returns the same instrument, so independent components naturally
accumulate into shared metrics.  :meth:`MetricsRegistry.merge` folds a
second registry in (the ``--jobs N`` per-worker pattern: each worker
fills its own registry, the parent merges them in request order), using
the lossless ``merge()`` of the underlying accumulators -- mismatched
histogram/series configurations raise rather than silently degrade.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.simulator.telemetry import LatencyHistogram, TimeSeries

LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A last-written value (e.g. peak queue depth, final utilization)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Counters, gauges, histograms, and time series keyed on (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Any] = {}

    # -- registration -------------------------------------------------

    def _get_or_create(self, name: str, labels: Dict[str, Any], factory, kind):
        key = (name, _label_key(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            instrument = factory()
            self._metrics[key] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, labels, Gauge, Gauge)

    def histogram(self, name: str, **labels: Any) -> LatencyHistogram:
        return self._get_or_create(
            name, labels, LatencyHistogram, LatencyHistogram
        )

    def series(
        self, name: str, bucket_ms: float = 500.0, **labels: Any
    ) -> TimeSeries:
        return self._get_or_create(
            name, labels, lambda: TimeSeries(bucket_ms=bucket_ms), TimeSeries
        )

    # -- inspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def items(self) -> Iterator[Tuple[str, Dict[str, str], Any]]:
        """(name, labels, instrument) in sorted key order."""
        for (name, labels) in sorted(self._metrics):
            yield name, dict(labels), self._metrics[(name, labels)]

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The registered instrument, or None."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Scalar value of a counter/gauge (None if unregistered)."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return None
        if not isinstance(instrument, (Counter, Gauge)):
            raise TypeError(f"metric {name!r} is not a scalar instrument")
        return instrument.value

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-friendly dump of every instrument's current state."""
        out: List[Dict[str, Any]] = []
        for name, labels, instrument in self.items():
            entry: Dict[str, Any] = {"name": name, "labels": labels}
            if isinstance(instrument, Counter):
                entry["type"] = "counter"
                entry["value"] = instrument.value
            elif isinstance(instrument, Gauge):
                entry["type"] = "gauge"
                entry["value"] = instrument.value
            elif isinstance(instrument, LatencyHistogram):
                entry["type"] = "histogram"
                entry["count"] = instrument.count
                entry["mean_ms"] = instrument.mean_ms
                entry["max_ms"] = instrument.max_ms
                entry["p50_ms"] = instrument.percentile_ms(0.50, default=None)
                entry["p95_ms"] = instrument.percentile_ms(0.95, default=None)
                entry["p99_ms"] = instrument.percentile_ms(0.99, default=None)
            elif isinstance(instrument, TimeSeries):
                entry["type"] = "series"
                entry["bucket_ms"] = instrument.bucket_ms
                entry["points"] = instrument.series()
            else:  # pragma: no cover - defensive
                entry["type"] = type(instrument).__name__
            out.append(entry)
        return out

    def render(self) -> str:
        """Plain-text dump (one line per instrument) for CLI output."""
        lines = []
        for entry in self.snapshot():
            labels = ",".join(f"{k}={v}" for k, v in entry["labels"].items())
            label_text = f"{{{labels}}}" if labels else ""
            if entry["type"] in ("counter", "gauge"):
                body = f"{entry['value']:g}"
            elif entry["type"] == "histogram":
                p99 = entry["p99_ms"]
                body = (
                    f"count={entry['count']} mean={entry['mean_ms']:.2f}ms "
                    f"p99={'n/a' if p99 is None else f'{p99:.2f}ms'}"
                )
            else:
                body = f"buckets={len(entry.get('points', []))}"
            lines.append(f"{entry['name']}{label_text} {body}")
        return "\n".join(lines)

    # -- combination --------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (lossless; returns self).

        Counters add, gauges keep the max, histograms and series merge
        via their lossless ``merge()`` (raising on mismatched bucket
        configuration, never silently rebinning).
        """
        for (name, labels), theirs in sorted(other._metrics.items()):
            key = (name, labels)
            mine = self._metrics.get(key)
            if mine is None:
                # New key: adopt a deep copy so later merges into either
                # registry cannot alias the same accumulator.
                self._metrics[key] = copy.deepcopy(theirs)
                continue
            if type(mine) is not type(theirs):
                raise TypeError(
                    f"cannot merge metric {name!r}: "
                    f"{type(mine).__name__} vs {type(theirs).__name__}"
                )
            if isinstance(mine, Counter):
                mine.value += theirs.value
            elif isinstance(mine, Gauge):
                mine.value = max(mine.value, theirs.value)
            else:
                mine.merge(theirs)
        return self
