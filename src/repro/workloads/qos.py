"""Quality-of-service specifications and tracking.

The paper measures interactive workloads as requests-per-second *for
comparable QoS guarantees*: websearch requires >95% of queries under 0.5
seconds, webmail >95% of requests under 0.8 seconds, and ytube extends the
QoS requirement to model streaming behaviour (similar violation rates
across runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class QosSpec:
    """A tail-latency QoS target: ``percentile`` of requests under ``limit_ms``."""

    limit_ms: float
    percentile: float = 0.95

    def __post_init__(self) -> None:
        if self.limit_ms <= 0:
            raise ValueError("QoS limit must be positive")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")

    def describe(self) -> str:
        return (
            f">{self.percentile * 100:.0f}% of requests take "
            f"<{self.limit_ms / 1000:g} seconds"
        )

    def violations_to_fail(self, samples: int) -> int:
        """The fewest of ``samples`` responses over ``limit_ms`` that fail.

        :meth:`QosTracker.satisfied` is False exactly when at least this
        many of its ``samples`` exceed the limit, because its nearest-rank
        percentile is then one of them: 126 of 2,500 at the 95th
        percentile.
        """
        return samples - _nearest_rank(self.percentile, samples)


def _nearest_rank(percentile: float, samples: int) -> int:
    """Index of the nearest-rank ``percentile`` among ``samples`` sorted
    values: the smallest value with CDF >= ``percentile``."""
    return max(0, math.ceil(percentile * samples) - 1)


class QosTracker:
    """Collects response times and evaluates a :class:`QosSpec`.

    Uses exact order statistics over the collected samples (the simulated
    measurement windows are small enough that a full sort is cheap).  The
    sorted samples are kept until the sample count changes, so the
    percentiles and :meth:`satisfied` of one window share one sort.
    """

    def __init__(self, spec: QosSpec):
        self.spec = spec
        self._samples: List[float] = []
        self._sorted: List[float] = []

    def record(self, response_ms: float) -> None:
        if response_ms < 0:
            raise ValueError("response time must be >= 0")
        self._samples.append(response_ms)

    def record_many(self, responses: Sequence[float]) -> None:
        """:meth:`record` each of ``responses``, checked as one batch."""
        if responses and min(responses) < 0:
            raise ValueError("response time must be >= 0")
        self._samples.extend(responses)

    @property
    def count(self) -> int:
        return len(self._samples)

    def percentile_ms(self, percentile: float | None = None) -> float:
        """Response time at the given percentile (defaults to the spec's)."""
        if not self._samples:
            raise ValueError("no samples recorded")
        p = self.spec.percentile if percentile is None else percentile
        if len(self._sorted) != len(self._samples):
            self._sorted = sorted(self._samples)
        return self._sorted[_nearest_rank(p, len(self._sorted))]

    def violation_rate(self) -> float:
        """Fraction of samples exceeding the QoS limit."""
        if not self._samples:
            return 0.0
        over = sum(1 for s in self._samples if s > self.spec.limit_ms)
        return over / len(self._samples)

    def satisfied(self) -> bool:
        """True if the configured percentile meets the limit; False when
        no response was recorded (a window that measured nothing did not
        meet QoS)."""
        if not self._samples:
            return False
        return self.percentile_ms() <= self.spec.limit_ms
