"""Fail-slow (gray-failure) injection and peer-comparison detection.

PR 1 models *fail-stop* faults (a component is up or down) and PR 2
models *overload* (everyone is slow together).  This module models the
failure class that threatens the paper's low-cost N1/N2 ensembles most
(ISCA'08 section 3.6, and Hamilton's modular-datacenter argument in
PAPERS.md): components that keep answering, but slowly -- wearing flash
whose reads stretch, a NIC renegotiating to a lower rate, a thermally
throttled microblade, a CPU losing turbo headroom.  Fleet-level health
checks tuned for fail-stop see such a server as perfectly healthy while
one 10x-slow blade poisons the whole cluster's p99.

Two halves, deliberately separable:

**Injection** -- :class:`FailSlowPlan` attaches *drift processes* to
individual servers' resource dimensions (:class:`SlowResource`: CPU
service time, NIC latency, remote-memory access time, flash/disk read
latency).  Four drift shapes cover the catalog of real gray failures:

- :class:`LinearDrift` -- gradual wear (flash program/erase damage,
  fan-bearing degradation): multiplier ramps from 1x to ``peak``;
- :class:`StepDrift` -- an abrupt but non-fatal event (link retrains at
  a lower rate, a core is offlined): jumps to ``factor`` and stays;
- :class:`StutterDrift` -- intermittent stalls (firmware GC pauses,
  background scrubbing): windows of ``factor`` slowdown recurring with
  a hash-derived pseudo-random pattern;
- :class:`SawtoothDrift` -- thermal cycling: multiplier climbs to
  ``peak`` over each period, then resets (heatsink clogged, fan duty
  cycling).

Every drift is a *pure function of simulated time*: parameters are
explicit and the stutter pattern comes from a SplitMix64 hash of the
window index, so injection consumes **zero RNG state** -- a drifting
run draws exactly the same workload/fault randomness as a healthy one,
and detected vs undetected request streams stay replayable.

**Detection** -- :class:`PeerComparisonDetector` implements the
service-level recovery Hamilton argues must replace hardware
reliability, as a deterministic state machine driven by the cluster
balancer:

- *peer-comparison scoring*: per-server attempt-latency histograms
  (PR 5's :class:`~repro.obs.metrics.MetricsRegistry` instruments,
  windowed via :meth:`~repro.simulator.telemetry.LatencyHistogram.since`)
  feed an EWMA of each server's windowed p95; a server is *suspect*
  when its EWMA exceeds ``suspect_ratio`` x the fleet median -- gray
  failure is invisible in absolute thresholds but obvious against
  peers doing identical work;
- *outlier ejection*: ``suspect_evals`` consecutive suspect windows
  quarantine the server (bounded by ``max_ejected_fraction`` so a
  common-mode slowdown can never eject the fleet);
- *probation probes*: after ``quarantine_ms`` the server re-enters on a
  trickle of probe requests; healthy probes re-admit it, slow probes
  re-quarantine it;
- *percentile-adaptive timeouts*: the per-attempt timeout becomes
  ``multiple`` x the fleet-median EWMA p95 (clamped to
  ``[floor_ms, static timeout]``), so retries fire at "slower than
  peers", not at a static worst-case guess.

The detector never touches an RNG either: with a healthy fleet (no
transitions, adaptive timeouts off) a detection-enabled run is
byte-identical to a detection-free run -- asserted in tests and by the
detection cost budget in ``benchmarks/test_budgets.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # ``repro.faults`` loads early in package init (costmodel needs the
    # fault model); pulling obs/telemetry in at module level would close
    # the simulator <-> workloads import cycle.  The detector imports
    # them lazily at construction time instead.
    from repro.obs.metrics import MetricsRegistry
    from repro.simulator.telemetry import HistogramSnapshot, LatencyHistogram

__all__ = [
    "SlowResource",
    "LinearDrift",
    "StepDrift",
    "StutterDrift",
    "SawtoothDrift",
    "FailSlowInjection",
    "FailSlowPlan",
    "DriftTable",
    "ServerHealth",
    "AdaptiveTimeoutPolicy",
    "DetectionPolicy",
    "HealthTransition",
    "FailSlowReport",
    "PeerComparisonDetector",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """SplitMix64 finalizer: one well-mixed 64-bit word from ``value``."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _hash_unit(seed: int, index: int) -> float:
    """Deterministic uniform [0, 1) from (seed, index) -- no RNG state."""
    return _splitmix64((seed & _MASK64) ^ _splitmix64(index & _MASK64)) / 2.0**64


class SlowResource(enum.Enum):
    """A server resource dimension a drift process can degrade."""

    CPU = "cpu"
    NIC = "nic"
    REMOTE_MEMORY = "remote-mem"
    FLASH = "flash"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class LinearDrift:
    """Gradual wear: multiplier ramps 1 -> ``peak`` over ``ramp_ms``.

    Flat at 1.0 before ``onset_ms``, linear to ``peak`` at
    ``onset_ms + ramp_ms``, then holds ``peak`` (the worn state does
    not heal).
    """

    peak: float
    onset_ms: float = 0.0
    ramp_ms: float = 10_000.0

    def __post_init__(self) -> None:
        if self.peak < 1.0:
            raise ValueError("drift multipliers are slowdowns (>= 1.0)")
        if self.onset_ms < 0 or self.ramp_ms <= 0:
            raise ValueError("onset must be >= 0 and ramp positive")

    def multiplier(self, now_ms: float) -> float:
        if now_ms <= self.onset_ms:
            return 1.0
        progress = min((now_ms - self.onset_ms) / self.ramp_ms, 1.0)
        return 1.0 + (self.peak - 1.0) * progress


@dataclass(frozen=True)
class StepDrift:
    """Abrupt, persistent degradation: ``factor`` x from ``at_ms`` on."""

    factor: float
    at_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("drift multipliers are slowdowns (>= 1.0)")
        if self.at_ms < 0:
            raise ValueError("step time must be >= 0")

    def multiplier(self, now_ms: float) -> float:
        return self.factor if now_ms >= self.at_ms else 1.0


@dataclass(frozen=True)
class StutterDrift:
    """Intermittent stalls: ``factor`` x for ``burst_ms`` at the start of
    each ``period_ms`` window, firing in ``probability`` of windows.

    Which windows stutter is a pure SplitMix64 hash of the window index
    and ``seed`` -- deterministic, replayable, zero RNG state consumed.
    """

    factor: float
    period_ms: float = 1000.0
    burst_ms: float = 200.0
    probability: float = 0.5
    seed: int = 0
    onset_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("drift multipliers are slowdowns (>= 1.0)")
        if self.period_ms <= 0 or not 0 < self.burst_ms <= self.period_ms:
            raise ValueError("need 0 < burst_ms <= period_ms")
        if not 0 < self.probability <= 1:
            raise ValueError("probability must be in (0, 1]")
        if self.onset_ms < 0:
            raise ValueError("onset must be >= 0")

    def multiplier(self, now_ms: float) -> float:
        if now_ms < self.onset_ms:
            return 1.0
        window = int((now_ms - self.onset_ms) / self.period_ms)
        offset = (now_ms - self.onset_ms) - window * self.period_ms
        if offset >= self.burst_ms:
            return 1.0
        if _hash_unit(self.seed, window) >= self.probability:
            return 1.0
        return self.factor


@dataclass(frozen=True)
class SawtoothDrift:
    """Thermal cycling: multiplier climbs 1 -> ``peak`` over each
    ``period_ms``, then snaps back to 1.0 (duty-cycled cooling)."""

    peak: float
    period_ms: float = 5000.0
    onset_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.peak < 1.0:
            raise ValueError("drift multipliers are slowdowns (>= 1.0)")
        if self.period_ms <= 0:
            raise ValueError("period must be positive")
        if self.onset_ms < 0:
            raise ValueError("onset must be >= 0")

    def multiplier(self, now_ms: float) -> float:
        if now_ms < self.onset_ms:
            return 1.0
        phase = ((now_ms - self.onset_ms) % self.period_ms) / self.period_ms
        return 1.0 + (self.peak - 1.0) * phase


@dataclass(frozen=True)
class FailSlowInjection:
    """One drift process attached to one server's resource dimension."""

    server: int
    resource: SlowResource
    drift: object

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ValueError("server index must be >= 0")
        if not callable(getattr(self.drift, "multiplier", None)):
            raise TypeError("drift must expose multiplier(now_ms)")


@dataclass(frozen=True)
class FailSlowPlan:
    """The gray-failure scenario for one cluster run."""

    injections: Tuple[FailSlowInjection, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "injections", tuple(self.injections))

    @classmethod
    def single_slow_node(
        cls,
        server: int = 0,
        factor: float = 10.0,
        resource: SlowResource = SlowResource.CPU,
        at_ms: float = 0.0,
    ) -> "FailSlowPlan":
        """The canonical EXT-12 scenario: one node steps to ``factor`` x."""
        return cls(
            injections=(
                FailSlowInjection(server, resource, StepDrift(factor, at_ms)),
            )
        )

    @property
    def drifting_servers(self) -> List[int]:
        return sorted({injection.server for injection in self.injections})

    def table(self, servers: int) -> "DriftTable":
        """Compile the plan into per-server lookup arrays."""
        return DriftTable(self, servers)


class DriftTable:
    """Per-server, per-resource drift lookup for the balancer hot path.

    Each resource attribute is a list indexed by server holding either
    ``None`` (no drift -- the overwhelmingly common case, one branch to
    skip) or a tuple of drift processes whose multipliers compose.
    """

    __slots__ = ("cpu", "nic", "remote", "flash", "servers")

    def __init__(self, plan: FailSlowPlan, servers: int):
        if servers <= 0:
            raise ValueError("servers must be positive")
        out_of_range = [i.server for i in plan.injections if i.server >= servers]
        if out_of_range:
            raise ValueError(
                f"injection server indices out of range: {sorted(set(out_of_range))}"
            )
        self.servers = servers
        lanes: Dict[SlowResource, List[Optional[Tuple[object, ...]]]] = {
            resource: [None] * servers for resource in SlowResource
        }
        for injection in plan.injections:
            lane = lanes[injection.resource]
            existing = lane[injection.server] or ()
            lane[injection.server] = existing + (injection.drift,)
        self.cpu = lanes[SlowResource.CPU]
        self.nic = lanes[SlowResource.NIC]
        self.remote = lanes[SlowResource.REMOTE_MEMORY]
        self.flash = lanes[SlowResource.FLASH]

    @staticmethod
    def scale(drifts: Optional[Tuple[object, ...]], now_ms: float) -> float:
        """Composed multiplier of one lane entry at ``now_ms``."""
        if drifts is None:
            return 1.0
        factor = 1.0
        for drift in drifts:
            factor *= drift.multiplier(now_ms)
        return factor


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


class ServerHealth(enum.Enum):
    """Detector-side health state of one server."""

    ACTIVE = "active"
    QUARANTINED = "quarantined"
    PROBATION = "probation"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class AdaptiveTimeoutPolicy:
    """Percentile-adaptive per-attempt timeouts.

    The attempt timeout becomes ``multiple`` x the fleet-median EWMA
    p95 (the detector's peer-comparison score), clamped to
    ``[floor_ms, static timeout]`` -- so a healthy fast fleet times out
    stragglers at "slower than peers" instead of a static worst-case
    bound, and the static bound remains a hard ceiling.
    """

    multiple: float = 3.0
    floor_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.multiple <= 1.0:
            raise ValueError("timeout multiple must exceed 1")
        if self.floor_ms <= 0:
            raise ValueError("floor must be positive")


@dataclass(frozen=True)
class DetectionPolicy:
    """Peer-comparison scoring, ejection, and re-admission knobs."""

    #: Detector evaluation cadence (simulated ms).  Scoring is gated on
    #: ``min_window_samples`` regardless, so a faster cadence than the
    #: traffic can fill windows only buys no-op ticks.
    eval_interval_ms: float = 1000.0
    #: Windowed-p95 smoothing weight (1.0 = no smoothing).
    ewma_alpha: float = 0.3
    #: Percentile of each evaluation window fed into the EWMA.
    score_percentile: float = 0.95
    #: A window below this many samples keeps accumulating instead of
    #: scoring (slow servers complete fewer requests -- their evidence
    #: arrives over more wall-clock, not never).
    min_window_samples: int = 8
    #: Suspect when EWMA p95 > ratio x fleet median...
    suspect_ratio: float = 2.0
    #: ...and exceeds the median by at least this absolute slack
    #: (ratio tests are meaningless noise at sub-millisecond medians).
    min_gap_ms: float = 5.0
    #: Consecutive fresh suspect windows before ejection.
    suspect_evals: int = 2
    #: Quarantine dwell before probation probing starts.
    quarantine_ms: float = 2000.0
    #: Dwell multiplier applied per relapse (probation -> quarantine):
    #: a persistently slow server is probed at exponentially longer
    #: intervals, so probe traffic stops polluting the tail (p99 over M
    #: samples is the worst M/100 -- a handful of slow probes per second
    #: IS the tail otherwise).
    quarantine_backoff: float = 3.0
    #: Relapse count at which the dwell stops growing.
    max_backoff_relapses: int = 6
    #: Probe requests granted to a probation server per evaluation.
    #: Kept deliberately small: probation probes run at the slow node's
    #: latency, and every probe is a candidate tail sample.
    probes_per_eval: int = 2
    #: Probe windows may score on fewer samples than regular windows.
    probe_min_samples: int = 2
    #: Probation is healthy while EWMA p95 <= ratio x fleet median.
    readmit_ratio: float = 1.5
    #: Consecutive healthy probation windows before re-admission.
    readmit_evals: int = 2
    #: Never hold more than this fraction of the fleet out of rotation
    #: (a common-mode slowdown must brown out, not self-eject).
    max_ejected_fraction: float = 0.34
    #: Optional percentile-adaptive per-attempt timeout.
    adaptive_timeout: Optional[AdaptiveTimeoutPolicy] = None

    def __post_init__(self) -> None:
        if self.eval_interval_ms <= 0:
            raise ValueError("evaluation interval must be positive")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0 < self.score_percentile <= 1:
            raise ValueError("score percentile must be in (0, 1]")
        if self.min_window_samples < 1 or self.probe_min_samples < 1:
            raise ValueError("window sample minimums must be positive")
        if self.suspect_ratio <= 1.0 or self.readmit_ratio < 1.0:
            raise ValueError("suspect ratio > 1 and readmit ratio >= 1 required")
        if self.min_gap_ms < 0:
            raise ValueError("min_gap_ms must be >= 0")
        if self.suspect_evals < 1 or self.readmit_evals < 1:
            raise ValueError("eval streaks must be positive")
        if self.quarantine_ms <= 0:
            raise ValueError("quarantine dwell must be positive")
        if self.quarantine_backoff < 1.0 or self.max_backoff_relapses < 0:
            raise ValueError(
                "quarantine backoff must be >= 1 with a >= 0 relapse cap"
            )
        if self.probes_per_eval < 1:
            raise ValueError("probes_per_eval must be positive")
        if not 0 < self.max_ejected_fraction <= 1:
            raise ValueError("max_ejected_fraction must be in (0, 1]")


@dataclass
class HealthTransition:
    """One detector state change, for reports and tests."""

    time_ms: float
    server: int
    state: str  # new ServerHealth value
    reason: str  # "ejected" | "probation" | "readmitted" | "requarantined"


@dataclass
class FailSlowReport:
    """Fail-slow injection and detection summary for one cluster run."""

    #: Servers the plan degrades (empty = detection-only run).
    drifting_servers: List[int] = field(default_factory=list)
    #: Detector evaluations executed.
    evaluations: int = 0
    #: Suspect verdicts across all evaluations (pre-ejection evidence).
    suspect_flags: int = 0
    #: Active -> quarantined ejections.
    ejections: int = 0
    #: Probation -> active re-admissions.
    readmissions: int = 0
    #: Probation -> quarantined relapses.
    requarantines: int = 0
    #: Probe requests routed to probation servers.
    probes: int = 0
    #: Dispatches that ignored quarantine because no routable server
    #: remained (availability beats ejection).
    quarantine_bypasses: int = 0
    #: Servers marked drained from outside the detector (maintenance
    #: windows, redundancy failover with data loss).
    drain_marks: int = 0
    #: Full transition log in simulated-time order.
    transitions: List[HealthTransition] = field(default_factory=list)
    #: Total out-of-rotation time per server (quarantine + probation).
    ejected_ms: Dict[int, float] = field(default_factory=dict)
    #: Health state per server at end of run.
    final_health: Dict[int, str] = field(default_factory=dict)
    #: EWMA p95 score per server at end of run (scored servers only).
    final_score_ms: Dict[int, float] = field(default_factory=dict)
    #: Last adaptive per-attempt timeout in force (None = static).
    last_adaptive_timeout_ms: Optional[float] = None


class PeerComparisonDetector:
    """Deterministic gray-failure detector over per-server latencies.

    The balancer feeds every finished attempt's latency (completions at
    their true latency, timeouts at the timeout value -- a floor on the
    truth) into :meth:`observe`, and calls :meth:`evaluate` on a fixed
    simulated-time cadence.  All scoring state lives in
    :class:`~repro.obs.metrics.MetricsRegistry` per-server histograms,
    windowed with snapshots, so detection shares PR 5's telemetry
    machinery instead of growing a private stats stack.  Nothing in
    here touches an RNG, schedules differently based on wall time, or
    mutates anything outside its own state: decisions are a pure
    function of (observed latencies, simulated time).
    """

    def __init__(
        self,
        policy: DetectionPolicy,
        servers: int,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        from repro.obs.metrics import MetricsRegistry

        if servers <= 0:
            raise ValueError("servers must be positive")
        self.policy = policy
        self.servers = servers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.report = FailSlowReport()
        #: The per-server attempt-latency histograms detection scores
        #: (public: the balancer binds their ``record`` methods directly
        #: onto its completion hot path).
        self.histograms: Tuple[LatencyHistogram, ...] = tuple(
            self.metrics.histogram("failslow.attempt_ms", server=index)
            for index in range(servers)
        )
        self._since: List[HistogramSnapshot] = [
            hist.snapshot() for hist in self.histograms
        ]
        self._health = [ServerHealth.ACTIVE] * servers
        self._score: List[Optional[float]] = [None] * servers
        self._suspect_streak = [0] * servers
        self._healthy_streak = [0] * servers
        self._ejected_at = [0.0] * servers
        self._probe_credit = [0] * servers
        self._relapses = [0] * servers
        self._median: Optional[float] = None
        #: Current adaptive per-attempt timeout before the static cap,
        #: or None until the fleet median warms up.  A plain attribute
        #: so the balancer reads it without a method call per attempt.
        self.adaptive_timeout_ms: Optional[float] = None
        #: Servers currently out of rotation (quarantined or probation).
        #: A plain attribute for the balancer's per-request fast path:
        #: while 0 -- always, on a healthy fleet -- routability
        #: filtering and probe routing are skipped entirely.
        self.ejected_count = 0
        #: Servers marked unroutable from outside the detector:
        #: maintenance drains and failed-over servers paying the
        #: data-loss paging penalty.  Same fast-path contract as
        #: ``ejected_count`` -- the balancer checks the counter before
        #: filtering, so a run without drains costs nothing extra.
        self.drained_count = 0
        self._drained = [False] * servers
        # Fleet-wide sample total below which the next evaluation
        # cannot possibly score any window (see evaluate()'s gate).
        self._gate_total = 0

    # -- balancer-facing queries --------------------------------------

    def health(self, server: int) -> ServerHealth:
        return self._health[server]

    def routable(self, server: int) -> bool:
        """May regular (non-probe) traffic go to this server?

        False while quarantined/probation *or* externally drained
        (maintenance window, or failed over with unrecoverable pages) --
        so hedge redirects never land on a node that is being drained.
        """
        return (
            self._health[server] is ServerHealth.ACTIVE
            and not self._drained[server]
        )

    def set_drained(self, server: int, drained: bool) -> None:
        """Mark a server drained (maintenance / failed-over) or restored.

        Idempotent; drained servers are excluded from routing, probe
        selection, and the fleet median (a draining node's latencies
        must not drag the baseline the healthy fleet is scored against).
        """
        if self._drained[server] == drained:
            return
        self._drained[server] = drained
        self.drained_count += 1 if drained else -1
        if drained:
            self.report.drain_marks += 1

    def take_probe(self) -> Optional[int]:
        """A probation server owed a probe request, or None.

        Consumes one probe credit; lowest-index probation server first
        (deterministic, and probation is rare enough that fairness
        between concurrent probations does not matter).
        """
        for index in range(self.servers):
            if (
                self._health[index] is ServerHealth.PROBATION
                and self._probe_credit[index] > 0
                and not self._drained[index]
            ):
                self._probe_credit[index] -= 1
                self.report.probes += 1
                return index
        return None

    def attempt_timeout_ms(self, static_ms: float) -> float:
        """Per-attempt timeout: adaptive when enabled and warmed up.

        Called once per dispatched attempt, so the adaptive value is
        precomputed on every fleet-median update (:meth:`evaluate`) and
        the per-attempt cost is a comparison.
        """
        adaptive = self.adaptive_timeout_ms
        if adaptive is None:
            return static_ms
        timeout = adaptive if adaptive < static_ms else static_ms
        self.report.last_adaptive_timeout_ms = timeout
        return timeout

    def observe(self, server: int, latency_ms: float) -> None:
        """Record one finished attempt's latency for ``server``."""
        self.histograms[server].record(latency_ms)

    # -- periodic evaluation ------------------------------------------

    def _transition(
        self, now_ms: float, server: int, state: ServerHealth, reason: str
    ) -> HealthTransition:
        transition = HealthTransition(now_ms, server, state.value, reason)
        was_active = self._health[server] is ServerHealth.ACTIVE
        now_active = state is ServerHealth.ACTIVE
        if was_active and not now_active:
            self.ejected_count += 1
        elif now_active and not was_active:
            self.ejected_count -= 1
        self._health[server] = state
        self.report.transitions.append(transition)
        return transition

    def _fleet_median(self) -> Optional[float]:
        scores = sorted(
            score
            for index, score in enumerate(self._score)
            if score is not None
            and self._health[index] is ServerHealth.ACTIVE
            and not self._drained[index]
        )
        if not scores:
            return None
        middle = len(scores) // 2
        if len(scores) % 2:
            return scores[middle]
        return 0.5 * (scores[middle - 1] + scores[middle])

    def evaluate(self, now_ms: float) -> List[HealthTransition]:
        """One detection pass; returns the transitions it caused."""
        policy = self.policy
        report = self.report
        report.evaluations += 1
        transitions: List[HealthTransition] = []

        # Cheap gate first: no server can have a scorable window until
        # the fleet-wide sample total reaches the target the last full
        # pass computed (current total + the smallest per-server sample
        # deficit -- even if every new sample lands on the closest
        # server, it cannot reach its floor sooner).  Ticks land every
        # eval_interval_ms whether or not traffic does, so on a healthy
        # fleet most ticks exit here for the cost of a few adds.
        if self.ejected_count == 0:
            fleet_total = 0
            for hist in self.histograms:
                fleet_total += hist.count
            if fleet_total < self._gate_total:
                return transitions

        # 1. Score servers whose window accumulated enough evidence,
        # tracking the smallest deficit for the next gate target.
        fresh_indices: List[int] = []
        fleet_total = 0
        min_deficit = policy.min_window_samples
        for index, hist in enumerate(self.histograms):
            count = hist.count
            fleet_total += count
            snapshot = self._since[index]
            window_count = count - snapshot.total
            floor = (
                policy.probe_min_samples
                if self._health[index] is ServerHealth.PROBATION
                else policy.min_window_samples
            )
            if window_count < floor:
                # Keep accumulating; do not advance the window.
                deficit = floor - window_count
                if deficit < min_deficit:
                    min_deficit = deficit
                continue
            score = hist.percentile_since(snapshot, policy.score_percentile)
            previous = self._score[index]
            self._score[index] = (
                score
                if previous is None
                else policy.ewma_alpha * score
                + (1.0 - policy.ewma_alpha) * previous
            )
            self._since[index] = hist.snapshot()
            fresh_indices.append(index)

        if self.ejected_count == 0:
            self._gate_total = fleet_total + min_deficit
            # Nothing scored and nobody out of rotation: the fleet
            # median and every health state are exactly what the last
            # evaluation left them, so steps 2-5 would be no-ops.
            if not fresh_indices:
                return transitions

        # 2. Peer baseline: median score over in-rotation servers.  The
        # adaptive timeout derived from it is cached here so the
        # per-attempt query is a single comparison.
        median = self._fleet_median()
        self._median = median
        adaptive = policy.adaptive_timeout
        if adaptive is None or median is None:
            self.adaptive_timeout_ms = None
        else:
            value = adaptive.multiple * median
            self.adaptive_timeout_ms = (
                value if value > adaptive.floor_ms else adaptive.floor_ms
            )

        # 3. Suspicion and ejection for in-rotation servers.
        if median is not None:
            threshold = max(
                median * policy.suspect_ratio, median + policy.min_gap_ms
            )
            capacity = int(policy.max_ejected_fraction * self.servers)
            for index in fresh_indices:
                if self._health[index] is not ServerHealth.ACTIVE:
                    continue
                if self._score[index] > threshold:
                    report.suspect_flags += 1
                    self._suspect_streak[index] += 1
                    if (
                        self._suspect_streak[index] >= policy.suspect_evals
                        and self.ejected_count + 1 <= capacity
                    ):
                        report.ejections += 1
                        self._ejected_at[index] = now_ms
                        self._suspect_streak[index] = 0
                        self._healthy_streak[index] = 0
                        transitions.append(
                            self._transition(
                                now_ms, index, ServerHealth.QUARANTINED,
                                "ejected",
                            )
                        )
                else:
                    self._suspect_streak[index] = 0

        # 4. Quarantine dwell expiry -> probation probing.  The dwell
        # grows exponentially with relapses, so a persistently slow
        # server's probes stop showing up in the latency distribution.
        # (Steps 4 and 5 only have work while somebody is ejected.)
        if self.ejected_count == 0:
            return transitions
        for index in range(self.servers):
            if self._health[index] is not ServerHealth.QUARANTINED:
                continue
            dwell = policy.quarantine_ms * policy.quarantine_backoff ** min(
                self._relapses[index], policy.max_backoff_relapses
            )
            if now_ms - self._ejected_at[index] >= dwell:
                self._probe_credit[index] = policy.probes_per_eval
                self._healthy_streak[index] = 0
                # Probation starts from a clean window: quarantine-era
                # stragglers must not poison the probe verdict.
                self._since[index] = self.histograms[index].snapshot()
                self._score[index] = None
                transitions.append(
                    self._transition(
                        now_ms, index, ServerHealth.PROBATION, "probation"
                    )
                )

        # 5. Probation verdicts (on fresh probe windows only).
        for index in range(self.servers):
            if self._health[index] is not ServerHealth.PROBATION:
                continue
            self._probe_credit[index] = policy.probes_per_eval
            if (
                index not in fresh_indices
                or self._score[index] is None
                or median is None
            ):
                continue
            healthy_bound = max(
                median * policy.readmit_ratio, median + policy.min_gap_ms
            )
            if self._score[index] <= healthy_bound:
                self._healthy_streak[index] += 1
                if self._healthy_streak[index] >= policy.readmit_evals:
                    report.readmissions += 1
                    report.ejected_ms[index] = report.ejected_ms.get(
                        index, 0.0
                    ) + (now_ms - self._ejected_at[index])
                    self._healthy_streak[index] = 0
                    self._probe_credit[index] = 0
                    self._relapses[index] = 0
                    transitions.append(
                        self._transition(
                            now_ms, index, ServerHealth.ACTIVE, "readmitted"
                        )
                    )
            else:
                report.requarantines += 1
                # Relapse: bank the elapsed out-of-rotation time and
                # restart the (longer) quarantine dwell from now.
                report.ejected_ms[index] = report.ejected_ms.get(
                    index, 0.0
                ) + (now_ms - self._ejected_at[index])
                self._ejected_at[index] = now_ms
                self._relapses[index] += 1
                self._healthy_streak[index] = 0
                self._probe_credit[index] = 0
                transitions.append(
                    self._transition(
                        now_ms, index, ServerHealth.QUARANTINED,
                        "requarantined",
                    )
                )
        return transitions

    def finalize(self, end_ms: float) -> FailSlowReport:
        """Close open ejection intervals and fill the end-of-run summary."""
        report = self.report
        for index in range(self.servers):
            if self._health[index] is not ServerHealth.ACTIVE:
                report.ejected_ms[index] = report.ejected_ms.get(
                    index, 0.0
                ) + (end_ms - self._ejected_at[index])
            report.final_health[index] = self._health[index].value
            if self._score[index] is not None:
                report.final_score_ms[index] = self._score[index]
        return report
