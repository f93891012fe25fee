"""Overload protection for the simulated cluster.

The paper provisions its ensembles for *sustained* utilization; real
warehouse front-ends also survive surges.  An unprotected serving stack
exhibits *metastable failure* under a transient overload: queues grow
past the client timeout, every response arrives too late, every timeout
triggers retries, and the retry load keeps the system saturated long
after the offered load has returned to normal (Bronson et al.,
"Metastable Failures in Distributed Systems"; Hamilton's modular-DC
argument in PAPERS.md makes the same brownout-over-failover case).

This module holds the protection mechanisms every production stack
layers in front of that failure mode, as small deterministic state
machines the discrete-event cluster simulator
(:class:`repro.cluster.balancer.ClusterSimulator`) drives:

- :class:`TokenBucket` / :class:`AdmissionPolicy` -- dispatcher-side
  admission control: a hard rate limit plus adaptive shedding once the
  observed queueing delay crosses a fraction of the QoS budget;
- :class:`RetryBudget` -- a retry-token bucket shared by the whole
  client population that caps the *amplification* a retry policy can
  apply to the offered load (the classic 10%-retry-budget rule);
- :class:`CircuitBreaker` -- per-server closed -> open -> half-open
  breaker that stops dispatching to a server whose recent outcomes are
  dominated by timeouts/rejections, with bounded half-open probes;
- :class:`BrownoutPolicy` -- overloaded servers serve a reduced
  service-demand variant of each request (dropping optional result
  decoration, as section 3's QoS discussion permits) so goodput
  degrades smoothly instead of cliffing;
- :class:`OverloadPolicy` -- the bundle the cluster simulator accepts,
  including the per-server queue bound and deadline-based shedding;
- :class:`OverloadReport` -- shed/reject/drop counters plus goodput,
  offered-load, and breaker-state :class:`~repro.simulator.telemetry.TimeSeries`;
- :class:`SurgeSchedule` -- a piecewise-constant open-loop arrival-rate
  schedule used to drive a cluster through a traffic surge.

Everything is deterministic: stochastic decisions (probabilistic
shedding) draw from the caller-provided seeded ``random.Random``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional

from repro.simulator.telemetry import TimeSeries

__all__ = [
    "TokenBucket",
    "AdmissionPolicy",
    "AdmissionController",
    "AdmissionVerdict",
    "RetryBudgetPolicy",
    "RetryBudget",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "BrownoutPolicy",
    "OverloadPolicy",
    "OverloadReport",
    "SurgeSchedule",
]


class TokenBucket:
    """A token-bucket rate limiter over simulated time.

    Tokens accrue at ``rate_per_s`` up to ``burst``; admitting a request
    spends one token.  Deterministic: refill is computed from the
    simulated clock passed to :meth:`try_acquire`.
    """

    __slots__ = ("_rate_per_ms", "_burst", "_tokens", "_last_ms")

    def __init__(self, rate_per_s: float, burst: float):
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self._rate_per_ms = rate_per_s / 1000.0
        self._burst = float(burst)
        self._tokens = float(burst)
        self._last_ms = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    def try_acquire(self, now_ms: float, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available at ``now_ms``."""
        if now_ms < self._last_ms:
            raise ValueError("token-bucket time must be monotonic")
        self._tokens = min(
            self._burst, self._tokens + (now_ms - self._last_ms) * self._rate_per_ms
        )
        self._last_ms = now_ms
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False


class AdmissionVerdict(enum.Enum):
    """Outcome of one admission decision at the dispatcher."""

    ADMIT = "admit"
    RATE_LIMITED = "rate-limited"
    SHED = "shed"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class AdmissionPolicy:
    """Dispatcher admission control: rate limit + adaptive shedding.

    ``rate_limit_rps`` (optional) is a hard token-bucket ceiling on
    admitted new requests.  The adaptive part watches an EWMA of the
    delay between dispatch and the start of CPU service (the queueing
    the request actually experienced): once it exceeds
    ``slo_fraction`` x the QoS latency budget, new arrivals are shed
    probabilistically, ramping to ``max_shed_probability`` at
    2x the threshold.
    """

    rate_limit_rps: Optional[float] = None
    burst: float = 32.0
    slo_fraction: float = 0.5
    ewma_alpha: float = 0.1
    max_shed_probability: float = 0.98

    def __post_init__(self) -> None:
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise ValueError("rate limit must be positive")
        if not 0 < self.slo_fraction:
            raise ValueError("slo_fraction must be positive")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0 <= self.max_shed_probability <= 1:
            raise ValueError("max_shed_probability must be in [0, 1]")


class AdmissionController:
    """Runtime state for an :class:`AdmissionPolicy`.

    ``slo_ms`` is the latency budget the shedding threshold is a
    fraction of (typically the workload's QoS limit or the retry
    timeout).  ``rng`` supplies the probabilistic-shed draws, so
    decisions are deterministic per seed.
    """

    __slots__ = ("policy", "_slo_ms", "_rng", "_bucket", "_delay_ewma")

    def __init__(self, policy: AdmissionPolicy, slo_ms: float, rng):
        if slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        self.policy = policy
        self._slo_ms = slo_ms
        self._rng = rng
        self._bucket = (
            TokenBucket(policy.rate_limit_rps, policy.burst)
            if policy.rate_limit_rps is not None
            else None
        )
        self._delay_ewma = 0.0

    def observe_delay(self, delay_ms: float) -> None:
        """Feed one observed dispatch-to-service delay into the EWMA."""
        if delay_ms < 0:
            raise ValueError("delay must be >= 0")
        a = self.policy.ewma_alpha
        self._delay_ewma = (1 - a) * self._delay_ewma + a * delay_ms

    def shed_probability(self) -> float:
        """Current adaptive shed probability in [0, max_shed_probability]."""
        threshold = self.policy.slo_fraction * self._slo_ms
        if self._delay_ewma <= threshold:
            return 0.0
        ramp = (self._delay_ewma - threshold) / threshold
        return min(self.policy.max_shed_probability, ramp)

    def admit(self, now_ms: float) -> AdmissionVerdict:
        """Decide one new request's fate at ``now_ms``."""
        if self._bucket is not None and not self._bucket.try_acquire(now_ms):
            return AdmissionVerdict.RATE_LIMITED
        p = self.shed_probability()
        if p > 0.0 and self._rng.random() < p:
            return AdmissionVerdict.SHED
        return AdmissionVerdict.ADMIT


@dataclass(frozen=True)
class RetryBudgetPolicy:
    """Shared retry-token budget (caps retry amplification).

    Every *first* attempt deposits ``token_ratio`` tokens (capped at
    ``burst``); every retry withdraws one.  With the default ratio the
    whole client population can add at most ~10% retry load on top of
    the offered load, which is what keeps a retry storm from sustaining
    an overload after the surge has passed.
    """

    token_ratio: float = 0.1
    burst: float = 32.0

    def __post_init__(self) -> None:
        if not 0 <= self.token_ratio <= 1:
            raise ValueError("token_ratio must be in [0, 1]")
        if self.burst < 1:
            raise ValueError("burst must allow at least one retry")


class RetryBudget:
    """Runtime token pool for a :class:`RetryBudgetPolicy`."""

    __slots__ = ("policy", "_tokens")

    def __init__(self, policy: RetryBudgetPolicy):
        self.policy = policy
        self._tokens = float(policy.burst)

    def note_request(self) -> None:
        """Deposit the per-request token fraction (first attempts only)."""
        self._tokens = min(
            self.policy.burst, self._tokens + self.policy.token_ratio
        )

    def try_spend(self) -> bool:
        """Withdraw one retry token; False means the retry is denied."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class BreakerState(enum.Enum):
    """Circuit-breaker state machine states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-server circuit breaker configuration.

    The breaker trips OPEN when, over the last ``window`` recorded
    outcomes (and at least ``min_samples`` of them), the failure
    fraction reaches ``failure_threshold``.  After ``open_ms`` it moves
    to HALF_OPEN and admits up to ``half_open_probes`` concurrent probe
    requests: one probe success closes it, one probe failure re-opens
    it for another ``open_ms``.
    """

    failure_threshold: float = 0.5
    window: int = 20
    min_samples: int = 10
    open_ms: float = 1000.0
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.failure_threshold <= 1:
            raise ValueError("failure_threshold must be in (0, 1]")
        if self.window < 1 or self.min_samples < 1:
            raise ValueError("window and min_samples must be positive")
        if self.min_samples > self.window:
            raise ValueError("min_samples cannot exceed the window")
        if self.open_ms <= 0:
            raise ValueError("open_ms must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be positive")


class CircuitBreaker:
    """Closed -> open -> half-open breaker over a rolling outcome window.

    Purely clock-driven (no wall time): callers pass the simulated time
    into every method.  ``on_transition(now_ms, state)`` is invoked on
    every state change so callers can keep a state timeline.
    """

    __slots__ = (
        "policy", "state", "opens", "_outcomes", "_opened_at",
        "_probes_in_flight", "_on_transition",
    )

    def __init__(
        self,
        policy: BreakerPolicy,
        on_transition: Optional[Callable[[float, BreakerState], None]] = None,
    ):
        self.policy = policy
        self.state = BreakerState.CLOSED
        self.opens = 0
        self._outcomes: Deque[bool] = deque(maxlen=policy.window)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._on_transition = on_transition

    def _transition(self, now_ms: float, state: BreakerState) -> None:
        self.state = state
        if state is BreakerState.OPEN:
            self.opens += 1
            self._opened_at = now_ms
        if self._on_transition is not None:
            self._on_transition(now_ms, state)

    def _failure_fraction(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    def allow(self, now_ms: float) -> bool:
        """May a request be dispatched to this server right now?"""
        if self.state is BreakerState.OPEN:
            if now_ms - self._opened_at >= self.policy.open_ms:
                self._probes_in_flight = 0
                self._transition(now_ms, BreakerState.HALF_OPEN)
            else:
                return False
        if self.state is BreakerState.HALF_OPEN:
            return self._probes_in_flight < self.policy.half_open_probes
        return True

    def note_dispatch(self, now_ms: float) -> bool:
        """Record a dispatch; returns True if it is a half-open probe."""
        if self.state is BreakerState.HALF_OPEN:
            self._probes_in_flight += 1
            return True
        return False

    def record_success(self, now_ms: float, probe: bool = False) -> None:
        if probe:
            self._probes_in_flight = max(self._probes_in_flight - 1, 0)
        if self.state is BreakerState.HALF_OPEN:
            # One healthy probe closes the breaker and forgets the storm.
            self._outcomes.clear()
            self._transition(now_ms, BreakerState.CLOSED)
            return
        self._outcomes.append(True)

    def reset(self, now_ms: float) -> None:
        """Forget the outcome window and close the breaker.

        Used by the gray-failure detector when it re-admits a server
        from probation: the failures the breaker accumulated were the
        fail-slow episode's doing, and probes have since proved the
        server healthy -- stale evidence must not keep it dark.
        """
        self._outcomes.clear()
        self._probes_in_flight = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(now_ms, BreakerState.CLOSED)

    def record_failure(self, now_ms: float, probe: bool = False) -> None:
        if probe:
            self._probes_in_flight = max(self._probes_in_flight - 1, 0)
        if self.state is BreakerState.HALF_OPEN:
            self._transition(now_ms, BreakerState.OPEN)
            return
        if self.state is BreakerState.OPEN:
            return
        self._outcomes.append(False)
        if (
            len(self._outcomes) >= self.policy.min_samples
            and self._failure_fraction() >= self.policy.failure_threshold
        ):
            self._transition(now_ms, BreakerState.OPEN)


@dataclass(frozen=True)
class BrownoutPolicy:
    """Serve a reduced-demand request variant while overloaded.

    When a server's outstanding work reaches ``enter_outstanding``, its
    requests are served at ``demand_factor`` x the sampled demand
    (models dropping optional result decoration -- fewer index
    segments, no related-videos pane -- which section 3's QoS framing
    permits as long as the latency bound holds).
    """

    demand_factor: float = 0.6
    enter_outstanding: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.demand_factor <= 1:
            raise ValueError("demand_factor must be in (0, 1]")
        if self.enter_outstanding < 1:
            raise ValueError("enter_outstanding must be positive")


@dataclass(frozen=True)
class OverloadPolicy:
    """The full protection stack the cluster simulator can apply.

    Any layer can be disabled by setting it to ``None`` (or
    ``queue_cap=None`` for unbounded queues, the pre-overload-PR
    behaviour).  ``deadline_shedding`` drops an attempt at the moment
    CPU service would start if its timeout has already expired or
    cannot be met -- stale work is shed instead of served uselessly.
    """

    queue_cap: Optional[int] = 64
    deadline_shedding: bool = True
    admission: Optional[AdmissionPolicy] = field(
        default_factory=AdmissionPolicy
    )
    retry_budget: Optional[RetryBudgetPolicy] = field(
        default_factory=RetryBudgetPolicy
    )
    breaker: Optional[BreakerPolicy] = field(default_factory=BreakerPolicy)
    brownout: Optional[BrownoutPolicy] = field(default_factory=BrownoutPolicy)
    #: Bucket width of the goodput/offered/breaker time series.
    telemetry_bucket_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.queue_cap is not None and self.queue_cap < 1:
            raise ValueError("queue_cap must be positive (or None)")
        if self.telemetry_bucket_ms <= 0:
            raise ValueError("telemetry bucket must be positive")

    @classmethod
    def unprotected(cls, telemetry_bucket_ms: float = 500.0) -> "OverloadPolicy":
        """No protection at all -- telemetry only (the naive baseline)."""
        return cls(
            queue_cap=None,
            deadline_shedding=False,
            admission=None,
            retry_budget=None,
            breaker=None,
            brownout=None,
            telemetry_bucket_ms=telemetry_bucket_ms,
        )


@dataclass
class OverloadReport:
    """Overload-protection counters and telemetry for one cluster run."""

    #: Dispatches refused because every candidate queue was at its cap.
    rejected_queue_full: int = 0
    #: Attempts dropped at service start because their deadline had
    #: passed (or provably could not be met).
    shed_deadline: int = 0
    #: New requests shed by the adaptive admission controller.
    shed_admission: int = 0
    #: New requests refused by the token-bucket rate limiter.
    rate_limited: int = 0
    #: Dispatches refused because every candidate breaker was open.
    breaker_rejections: int = 0
    #: Closed/half-open -> open breaker transitions across all servers.
    breaker_opens: int = 0
    #: Requests served in reduced-demand brownout mode.
    brownout_requests: int = 0
    #: Retries denied by the shared retry budget.
    retries_denied: int = 0
    #: Completions (any latency) per telemetry bucket.
    completed: TimeSeries = field(
        default_factory=lambda: TimeSeries(bucket_ms=500.0)
    )
    #: QoS-meeting completions per telemetry bucket.
    goodput: TimeSeries = field(
        default_factory=lambda: TimeSeries(bucket_ms=500.0)
    )
    #: New (first-attempt) requests offered per telemetry bucket.
    offered: TimeSeries = field(
        default_factory=lambda: TimeSeries(bucket_ms=500.0)
    )
    #: Breaker transitions to OPEN per telemetry bucket.
    breaker_open_series: TimeSeries = field(
        default_factory=lambda: TimeSeries(bucket_ms=500.0)
    )

    @property
    def total_shed(self) -> int:
        """Everything refused or dropped before useful service."""
        return (
            self.rejected_queue_full
            + self.shed_deadline
            + self.shed_admission
            + self.rate_limited
            + self.breaker_rejections
        )


@dataclass(frozen=True)
class SurgeSchedule:
    """Piecewise-constant open-loop arrival rate with one surge window.

    Arrivals are a Poisson process at ``base_rate_rps``, multiplied by
    ``surge_multiplier`` inside ``[surge_start_ms, surge_end_ms)``.
    Used by :class:`~repro.cluster.balancer.ClusterSimulator` in
    open-loop mode to model a diurnal peak or viral traffic spike
    against a cluster provisioned for the base rate.
    """

    base_rate_rps: float
    surge_multiplier: float = 5.0
    surge_start_ms: float = 0.0
    surge_end_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate_rps <= 0:
            raise ValueError("base rate must be positive")
        if self.surge_multiplier < 1.0:
            raise ValueError("surge multiplier must be >= 1")
        if self.surge_start_ms < 0 or self.surge_end_ms < self.surge_start_ms:
            raise ValueError("surge window must be ordered and non-negative")

    def rate_rps(self, now_ms: float) -> float:
        """Offered arrival rate at simulated time ``now_ms``."""
        if self.surge_start_ms <= now_ms < self.surge_end_ms:
            return self.base_rate_rps * self.surge_multiplier
        return self.base_rate_rps
