"""Recovery orchestration: rebuild storms as real DES traffic.

Hamilton's modular-datacenter argument (PAPERS.md) is that cheap shared
components only work when recovery is automated -- and that recovery
itself is a workload: rebuilding lost redundancy moves pages over the
same enclosure links foreground requests use, so an unthrottled rebuild
storm wins durability by losing the foreground tail.  This module owns
that trade:

- :class:`RecoveryOrchestrator` reacts to blade failures/repairs of a
  :class:`~repro.memsim.redundancy.BladeGroup`, keeps the balancer's
  per-server :class:`~repro.memsim.redundancy.ServiceProfile` view
  fresh, and drains the rebuild worklist in chunks that *acquire the
  shared blade-controller link* -- rebuild chunks genuinely queue
  behind (and ahead of) foreground remote-memory transfers.
- :class:`RebuildPolicy` / :class:`RebuildThrottle` bound the storm: a
  token bucket (reusing the PR 2 admission machinery) caps sustained
  rebuild pages/s, and an EWMA of foreground latency provides
  p99-backpressure -- rebuild pauses while the foreground tail is
  inflated, trading a longer durability-exposure window for a flatter
  p99.
- :class:`MaintenancePlan` scripts drain windows (rolling upgrades)
  driven through :mod:`repro.faults.injector` correlated domains.

Everything here is deterministic and consumes **zero RNG**: chunk
sizes, throttle decisions, and placement are pure functions of
simulated time and the scripted fault schedule, so redundancy-off runs
stay bit-identical to the seed streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.memsim.redundancy import (
    BladeGroup,
    RedundancyAudit,
    RedundancyPolicy,
    ServiceProfile,
    auto_blade_group,
)
from repro.obs.span import SpanKind, Trace


@dataclass(frozen=True)
class RebuildPolicy:
    """QoS bounds on background rebuild traffic.

    ``rate_pages_per_s``/``burst_pages`` feed a token bucket (sustained
    rate cap); ``backpressure_ms``, when set, pauses rebuild whenever
    the EWMA of observed foreground latency exceeds it, re-checking
    every ``pause_ms``.  ``page_transfer_us`` defaults to the remote
    memory model's per-page link latency.
    """

    chunk_pages: int = 64
    rate_pages_per_s: float = 40_000.0
    burst_pages: float = 256.0
    backpressure_ms: Optional[float] = None
    ewma_alpha: float = 0.2
    pause_ms: float = 25.0
    page_transfer_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.chunk_pages < 1:
            raise ValueError("chunk_pages must be >= 1")
        if self.rate_pages_per_s <= 0:
            raise ValueError("rebuild rate must be positive")
        if self.burst_pages < self.chunk_pages:
            raise ValueError("burst_pages must cover at least one chunk")
        if self.backpressure_ms is not None and self.backpressure_ms <= 0:
            raise ValueError("backpressure_ms must be positive when set")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.pause_ms <= 0:
            raise ValueError("pause_ms must be positive")
        if self.page_transfer_us is not None and self.page_transfer_us <= 0:
            raise ValueError("page_transfer_us must be positive when set")


class RebuildThrottle:
    """Token-bucket rate cap + foreground-latency backpressure."""

    __slots__ = ("policy", "_bucket", "_ewma", "_primed", "pending")

    def __init__(self, policy: RebuildPolicy):
        # Deferred import: the balancer imports this module, and the
        # cluster package imports the balancer, so a module-level import
        # of repro.cluster.overload would close an import cycle.
        from repro.cluster.overload import TokenBucket

        self.policy = policy
        self._bucket = TokenBucket(policy.rate_pages_per_s, policy.burst_pages)
        self._ewma = 0.0
        self._primed = False
        #: Foreground latencies not yet folded into the EWMA, in event
        #: order.  An engine may append here instead of calling
        #: :meth:`observe_foreground` once per completion: reading
        #: :attr:`backpressured`, the EWMA's only reader, folds them in
        #: first, in order, to the same float.
        self.pending: List[float] = []

    def observe_foreground(self, latency_ms: float) -> None:
        """Feed one foreground completion latency into the EWMA."""
        if not self._primed:
            self._ewma = latency_ms
            self._primed = True
        else:
            alpha = self.policy.ewma_alpha
            self._ewma += alpha * (latency_ms - self._ewma)

    @property
    def backpressured(self) -> bool:
        if self.pending:
            for latency_ms in self.pending:
                self.observe_foreground(latency_ms)
            del self.pending[:]
        limit = self.policy.backpressure_ms
        return limit is not None and self._primed and self._ewma > limit

    def try_acquire(self, now_ms: float, pages: int) -> bool:
        return self._bucket.try_acquire(now_ms, float(pages))

    def refill_wait_ms(self, pages: int) -> float:
        """Deterministic wait until ``pages`` tokens will have accrued."""
        deficit = float(pages) - self._bucket.tokens
        if deficit <= 0.0:
            return 0.0
        return deficit / (self.policy.rate_pages_per_s / 1000.0) + 1e-9


def _reject_overlaps(
    what: str, spans: Sequence[Tuple[int, float, Optional[float]]]
) -> None:
    """Raise ``ValueError`` naming two overlapping spans of one owner.

    ``spans`` are ``(owner, start_ms, end_ms)``, with ``end_ms=None``
    for a span that lasts to the end of the run.  Spans that only touch
    (one ends where the next starts) do not overlap.
    """
    widest: Dict[int, Tuple[float, Optional[float]]] = {}
    for owner, start, end in sorted(spans, key=lambda span: span[:2]):
        seen = widest.get(owner)
        if seen is not None:
            if seen[1] is None or start < seen[1]:
                first, second = (
                    f"[{a:g}, {'end of run' if b is None else f'{b:g}'}) ms"
                    for a, b in (seen, (start, end))
                )
                raise ValueError(f"{what} {owner}: {first} and {second}")
            if end is not None and end <= seen[1]:
                continue
        widest[owner] = (start, end)


@dataclass(frozen=True)
class BladeFault:
    """One scripted blade fail/repair pair (a storm is a tuple of these)."""

    blade: int
    fail_ms: float
    repair_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.blade < 0:
            raise ValueError("blade index must be >= 0")
        if self.fail_ms < 0:
            raise ValueError("fail_ms must be >= 0")
        if self.repair_ms is not None and self.repair_ms <= self.fail_ms:
            raise ValueError("repair_ms must come after fail_ms")


@dataclass(frozen=True)
class MaintenanceWindow:
    """Drain one server for ``duration_ms`` starting at ``start_ms``."""

    server: int
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ValueError("server index must be >= 0")
        if self.start_ms < 0:
            raise ValueError("start_ms must be >= 0")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


@dataclass(frozen=True)
class MaintenancePlan:
    """A scripted set of drain windows (no RNG; replayable)."""

    windows: Tuple[MaintenanceWindow, ...] = ()

    def __post_init__(self) -> None:
        for window in self.windows:
            if not isinstance(window, MaintenanceWindow):
                raise TypeError("windows must be MaintenanceWindow instances")
        # An inner window's restore would end the outer window early.
        _reject_overlaps("maintenance windows overlap on server", [
            (w.server, w.start_ms, w.end_ms) for w in self.windows
        ])
        # Kept in start order, so a window that starts where another
        # ends is scheduled after that one's restore.
        object.__setattr__(self, "windows", tuple(
            sorted(self.windows, key=lambda w: w.start_ms)
        ))

    @classmethod
    def rolling(
        cls,
        servers: int,
        start_ms: float,
        duration_ms: float,
        gap_ms: float = 0.0,
    ) -> "MaintenancePlan":
        """A rolling upgrade: drain each server in turn, one at a time."""
        if servers < 1:
            raise ValueError("servers must be >= 1")
        if gap_ms < 0:
            raise ValueError("gap_ms must be >= 0")
        step = duration_ms + gap_ms
        return cls(tuple(
            MaintenanceWindow(i, start_ms + i * step, duration_ms)
            for i in range(servers)
        ))


@dataclass(frozen=True)
class RedundancyConfig:
    """Everything the cluster needs to run protected remote memory.

    ``policy=None`` keeps today's unprotected single-blade behaviour
    (blade-down drops to local paging) while still letting the scripted
    ``blade_faults`` storm run -- that is EXT-13's unprotected arm.
    """

    policy: Optional[RedundancyPolicy] = None
    blades: Optional[int] = None
    pages_per_server: int = 256
    rebuild: RebuildPolicy = RebuildPolicy()
    blade_faults: Tuple[BladeFault, ...] = ()

    def __post_init__(self) -> None:
        if self.pages_per_server < 1:
            raise ValueError("pages_per_server must be >= 1")
        if self.blades is not None and self.blades < 1:
            raise ValueError("blades must be >= 1")
        if (
            self.policy is not None
            and self.blades is not None
            and self.blades < self.policy.min_blades
        ):
            raise ValueError(
                f"{self.policy.describe()} needs >= "
                f"{self.policy.min_blades} blades"
            )
        for fault in self.blade_faults:
            if not isinstance(fault, BladeFault):
                raise TypeError("blade_faults must be BladeFault instances")
            if fault.blade >= self.nblades:
                raise ValueError(
                    f"blade {fault.blade} out of range for "
                    f"{self.nblades} blades"
                )
        # A blade cannot fail again while it is down.
        _reject_overlaps("blade faults overlap on blade", [
            (f.blade, f.fail_ms, f.repair_ms) for f in self.blade_faults
        ])
        # Kept in failure order, so a fault that starts where another is
        # repaired is scheduled after that repair.
        object.__setattr__(self, "blade_faults", tuple(
            sorted(self.blade_faults, key=lambda f: f.fail_ms)
        ))

    @property
    def nblades(self) -> int:
        if self.blades is not None:
            return self.blades
        return self.policy.min_blades if self.policy is not None else 1

    def build_group(self, server_ids: Sequence[str]) -> Optional[BladeGroup]:
        """Materialise the blade group, pre-populated with each server's
        steady remote working set.  ``None`` when unprotected."""
        if self.policy is None:
            return None
        group = auto_blade_group(
            self.policy, self.nblades, server_ids, self.pages_per_server
        )
        group.populate()
        return group


@dataclass
class RecoveryReport:
    """What recovery did during a run (excluded from stream digests)."""

    blade_failures: int = 0
    blade_repairs: int = 0
    blade_downtime_ms: Dict[int, float] = field(default_factory=dict)
    #: Requests whose remote reads were partly served from surviving
    #: replicas / reconstructed stripes instead of the primary copy.
    failover_requests: int = 0
    #: Requests that paid local-paging time for unrecoverable pages.
    lossy_requests: int = 0
    #: Group counters (copied at finalize).
    degraded_writes: int = 0
    lost_writes: int = 0
    pages_rebuilt: int = 0
    #: Rebuild stream accounting.
    rebuild_chunks: int = 0
    rebuild_ms: float = 0.0
    throttle_denials: int = 0
    backpressure_pauses: int = 0
    #: Time any written page sat below full redundancy (the durability
    #: exposure window; stays open to run end if pages are lost).
    exposure_ms: float = 0.0
    #: Maintenance drains.
    drains: int = 0
    drain_ms: float = 0.0
    audit: Optional[RedundancyAudit] = None
    rebuild_traces: List[Trace] = field(default_factory=list)

    @property
    def data_loss(self) -> bool:
        return self.audit is not None and self.audit.lost > 0


class RecoveryOrchestrator:
    """Drives failover state and background rebuild for one blade group.

    ``clock`` is the engine's scheduler (``now`` and
    ``schedule(delay_ms, callback)``, as for
    :class:`~repro.faults.injector.FaultInjector`) and ``link`` the
    shared blade-controller link, a FIFO station with
    ``acquire(service_ms, done)``.  The orchestrator never touches an
    RNG.  Its ``active`` flag is the balancer's hot-path gate: while
    False (healthy group, nothing to rebuild) the foreground code path
    is byte-identical to the unprotected one.
    """

    def __init__(
        self,
        clock,
        link,
        group: BladeGroup,
        policy: RebuildPolicy,
        page_latency_us: float,
        metrics=None,
        trace: bool = False,
        report: Optional[RecoveryReport] = None,
    ):
        self._clock = clock
        self._link = link
        self.group = group
        self.policy = policy
        self.throttle = RebuildThrottle(policy)
        self.report = report if report is not None else RecoveryReport()
        self.active = False
        #: Called with (server_id, impaired) when a server crosses into
        #: or out of unrecoverable-page territory (hedge avoidance).
        self.on_impairment: Optional[Callable[[str, bool], None]] = None
        #: Called with the new value whenever :attr:`active` is set, so
        #: an engine can keep its own per-server gate in step.
        self.on_active: Optional[Callable[[bool], None]] = None
        per_page_us = (
            policy.page_transfer_us
            if policy.page_transfer_us is not None
            else page_latency_us
        )
        self._chunk_service_ms = (
            policy.chunk_pages * per_page_us / 1000.0
            * group.policy.rebuild_transfers_per_page
        )
        self._profiles: Dict[str, ServiceProfile] = {}
        self._profile_version = -1
        self._down_since: Dict[int, float] = {}
        self._exposure_since: Optional[float] = None
        self._pumping = False
        self._stream_trace: Optional[Trace] = None
        self._stream_started = 0.0
        self._streams = 0
        self._impaired: set = set()
        self._metrics = metrics
        self._trace_streams = trace
        if metrics is not None:
            self._pages_counter = metrics.counter("rebuild.pages")
            self._chunk_counter = metrics.counter("rebuild.chunks")
            self._pause_counter = metrics.counter("rebuild.backpressure_pauses")
            self._deny_counter = metrics.counter("rebuild.throttle_denials")
            self._backlog_gauge = metrics.gauge("rebuild.backlog_pages")
        else:
            self._pages_counter = self._chunk_counter = None
            self._pause_counter = self._deny_counter = None
            self._backlog_gauge = None

    # -- balancer-facing views ---------------------------------------

    def profile(self, server_id: str) -> ServiceProfile:
        """Current service profile, cached against the group version."""
        if self.group.version != self._profile_version:
            self._profiles = {}
            self._profile_version = self.group.version
        prof = self._profiles.get(server_id)
        if prof is None:
            prof = self.group.service_profile(server_id)
            self._profiles[server_id] = prof
        return prof

    @property
    def rebuilding(self) -> bool:
        return self._pumping

    def observe_foreground(self, latency_ms: float) -> None:
        self.throttle.observe_foreground(latency_ms)

    # -- blade lifecycle ----------------------------------------------

    def blade_failed(self, blade: int) -> None:
        now = self._clock.now
        self.group.fail_blade(blade)
        self.report.blade_failures += 1
        self._down_since[blade] = now
        if self._exposure_since is None:
            self._exposure_since = now
        self._set_active(True)
        self._notify_impairments()

    def blade_repaired(self, blade: int) -> None:
        now = self._clock.now
        self.group.repair_blade(blade)
        self.report.blade_repairs += 1
        since = self._down_since.pop(blade, now)
        downtime = self.report.blade_downtime_ms
        downtime[blade] = downtime.get(blade, 0.0) + (now - since)
        self._notify_impairments()
        self._start_stream()

    def _set_active(self, active: bool) -> None:
        self.active = active
        if self.on_active is not None:
            self.on_active(active)

    def _notify_impairments(self) -> None:
        if self.on_impairment is None:
            return
        for server_id in self.group._slots:
            impaired = self.profile(server_id).lost_fraction > 0.0
            was = server_id in self._impaired
            if impaired and not was:
                self._impaired.add(server_id)
                self.on_impairment(server_id, True)
            elif was and not impaired:
                self._impaired.discard(server_id)
                self.on_impairment(server_id, False)

    # -- rebuild pump -------------------------------------------------

    def _start_stream(self) -> None:
        if self._pumping:
            return
        if self.group.pages_needing_rebuild == 0:
            self._settle()
            return
        self._pumping = True
        self._stream_started = self._clock.now
        if self._trace_streams:
            trace = Trace(f"rebuild-{self._streams}")
            trace.start(
                SpanKind.REBUILD, self._clock.now,
                name=f"rebuild stream {self._streams}",
            )
            self._stream_trace = trace
        self._streams += 1
        self._pump()

    def _pump(self) -> None:
        backlog = self.group.pages_needing_rebuild
        if self._backlog_gauge is not None:
            self._backlog_gauge.set(float(backlog))
        if backlog == 0:
            self._finish_stream()
            return
        now = self._clock.now
        if self.throttle.backpressured:
            self.report.backpressure_pauses += 1
            if self._pause_counter is not None:
                self._pause_counter.inc()
            self._clock.schedule(self.policy.pause_ms, self._pump)
            return
        pages = min(self.policy.chunk_pages, backlog)
        if not self.throttle.try_acquire(now, pages):
            self.report.throttle_denials += 1
            if self._deny_counter is not None:
                self._deny_counter.inc()
            self._clock.schedule(self.throttle.refill_wait_ms(pages), self._pump)
            return
        service_ms = self._chunk_service_ms * (pages / self.policy.chunk_pages)

        def chunk_done() -> None:
            restored = self.group.rebuild_step(pages)
            self.report.rebuild_chunks += 1
            if self._pages_counter is not None and restored:
                self._pages_counter.inc(restored)
            if self._chunk_counter is not None:
                self._chunk_counter.inc()
            if self._stream_trace is not None:
                end = self._clock.now
                span = self._stream_trace.start(
                    SpanKind.REBUILD, end - service_ms, name="chunk",
                )
                span.annotate(pages=restored)
                Trace.finish(span, end)
            self._profiles = {}
            self._profile_version = self.group.version
            self._notify_impairments()
            self._pump()

        self._link.acquire(service_ms, chunk_done)

    def _finish_stream(self) -> None:
        now = self._clock.now
        self.report.rebuild_ms += now - self._stream_started
        if self._stream_trace is not None:
            self._stream_trace.close(now)
            self.report.rebuild_traces.append(self._stream_trace)
            self._stream_trace = None
        self._pumping = False
        self._settle()

    def _settle(self) -> None:
        """Close the exposure window / deactivate if fully redundant."""
        if self._down_since or self.group.pages_needing_rebuild:
            return
        if self.group.degraded_pages() == 0:
            now = self._clock.now
            if self._exposure_since is not None:
                self.report.exposure_ms += now - self._exposure_since
                self._exposure_since = None
            self._set_active(False)
        # Lost pages keep the group active (degraded service persists)
        # and the exposure window open until finalize.

    # -- teardown -----------------------------------------------------

    def finalize(self, now_ms: float) -> RecoveryReport:
        report = self.report
        if self._exposure_since is not None:
            report.exposure_ms += now_ms - self._exposure_since
            self._exposure_since = None
        for blade, since in self._down_since.items():
            downtime = report.blade_downtime_ms
            downtime[blade] = downtime.get(blade, 0.0) + (now_ms - since)
        if self._stream_trace is not None:
            report.rebuild_ms += now_ms - self._stream_started
            self._stream_trace.close(now_ms, status="truncated")
            report.rebuild_traces.append(self._stream_trace)
            self._stream_trace = None
        group = self.group
        report.degraded_writes = group.degraded_writes
        report.lost_writes = group.lost_writes
        report.pages_rebuilt = group.pages_rebuilt
        report.audit = group.audit()
        return report
