"""Reference oracle: the scalar per-request callback cluster engine.

This is ``ClusterSimulator._run_scalar`` as it stood when the last two
features it alone ran -- redundancy/rebuild traffic and maintenance
drains -- moved onto the cohort engine (:mod:`repro.cluster.engine`),
kept unchanged with its per-request records and dispatch helpers so
``test_cohort_engine.py`` can require :meth:`ClusterSimulator.run` to
reproduce it exactly: the same ``stream_digest()``, span log, metrics
snapshot and recovery report.  Every stage is a
:class:`~tests.simulator.resources.Resource` hop through closures on a
:class:`~tests.simulator.engine.Simulation`; the fault wiring it drives
(``ClusterSimulator._inject_faults``) is the engine's own.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cluster.balancer import (
    HEALTH_RECHECK_MS,
    ClusterResult,
    ClusterSimulator,
    Dispatch,
    FaultReport,
)
from repro.cluster.overload import (
    AdmissionController,
    AdmissionVerdict,
    BreakerState,
    CircuitBreaker,
    OverloadReport,
    RetryBudget,
)
from repro.faults.failslow import (
    DriftTable,
    FailSlowReport,
    PeerComparisonDetector,
)
from repro.faults.injector import FaultInjector, schedule_maintenance
from repro.faults.recovery import RecoveryOrchestrator, RecoveryReport
from repro.obs.span import SpanKind, Trace
from repro.obs.tracer import close_gave_up, record_stage, record_stage_parts
from repro.platforms.platform import Platform
from repro.simulator.server_sim import DiskModel
from repro.simulator.telemetry import AvailabilityTracker, TimeSeries
from repro.workloads.qos import QosTracker
from tests.perf.variates import exponential_sampler
from tests.simulator.engine import Simulation
from tests.simulator.reference_server_sim import PlatformDiskModel
from tests.simulator.resources import Resource


def run_scalar(csim: ClusterSimulator) -> ClusterResult:
    """Run ``csim``'s configuration on the scalar engine.

    The run reads the simulator's configuration through a copy of its
    attributes, so ``csim`` itself stays unrun and can still
    :meth:`~ClusterSimulator.run` on the cohort engine.
    """
    oracle = object.__new__(_ScalarSimulator)
    oracle.__dict__.update(vars(csim))
    return oracle._run_scalar()


class _RequestState:
    """Per-request record on the balancer's hot path.

    One is allocated per issued request (tens of thousands per run), so
    it is a slotted plain class rather than a dict: smaller and
    allocation-cheaper (``tests/perf/test_slots.py`` keeps it
    dict-free).
    """

    __slots__ = (
        "demand", "start", "attempts", "finished", "hedged", "trace",
        "trace_live",
    )

    def __init__(self, demand, start: float):
        self.demand = demand
        self.start = start
        self.attempts = 0
        self.finished = False
        self.hedged = False
        #: Sampled :class:`repro.obs.Trace` (None when untraced).
        self.trace = None
        #: Attempt spans still in flight -- used to decide whether a
        #: timeout wait sits on the critical path (it does not while a
        #: hedge is still running).
        self.trace_live = None


class _Attempt:
    """One dispatch attempt of a request (slotted: hot-path record).

    ``timer``/``hedge_timer`` hold :meth:`Simulation.schedule_timer`
    handles (0 = none) so a completed attempt cancels its pending
    timeout instead of leaving a dead event in the heap.
    """

    __slots__ = ("server", "epoch", "void", "done", "probe", "timer", "hedge_timer")

    def __init__(self, server: "_Server", epoch: int, probe: bool):
        self.server = server
        self.epoch = epoch
        self.void = False
        self.done = False
        self.probe = probe
        self.timer = 0
        self.hedge_timer = 0


class _Server:
    """One server's resources inside the cluster simulation."""

    __slots__ = (
        "index", "cpu", "mem", "disk", "nic", "disk_model", "outstanding",
        "completions", "up", "epoch", "down_components", "cpu_throttle",
        "blade_down", "draining",
    )

    def __init__(
        self, sim: Simulation, platform: Platform, disk_model: DiskModel,
        index: int,
    ):
        self.index = index
        self.cpu = Resource(sim, "cpu", platform.cpu.total_cores)
        self.mem = Resource(sim, "mem", platform.memory.channels)
        self.disk = Resource(sim, "disk", 1)
        self.nic = Resource(sim, "nic", 1)
        self.disk_model = disk_model
        self.outstanding = 0
        self.completions = 0
        self.up = True
        #: Bumped when the server drops out of rotation; attempts carry
        #: the epoch they were dispatched under, so completions from a
        #: pre-crash epoch are recognised as lost.
        self.epoch = 0
        #: Down components currently affecting this server (health = 0).
        self.down_components = 0
        #: CPU service-time multiplier (enclosure-fan thermal throttle).
        self.cpu_throttle = 1.0
        #: Attached memory blade unavailable (degraded local-only mode).
        self.blade_down = False
        #: In a maintenance-drain window: stays up (in-flight work
        #: completes) but receives no new dispatches or hedges.
        self.draining = False


class _ScalarSimulator(ClusterSimulator):
    """A :class:`ClusterSimulator` with the scalar engine's methods."""

    def _pick(
        self, servers: List[_Server], rr_state: Dict[str, int],
        rng: random.Random,
    ) -> _Server:
        if self._dispatch is Dispatch.ROUND_ROBIN:
            index = rr_state["next"] % len(servers)
            rr_state["next"] = (index + 1) % len(servers)
            return servers[index]
        # Least-outstanding with random tie-breaking (a deterministic
        # tie-break would systematically favour low-index servers).
        least = min(s.outstanding for s in servers)
        candidates = [s for s in servers if s.outstanding == least]
        return candidates[rng.randrange(len(candidates))]

    @staticmethod
    def _alive(servers: List[_Server]) -> List[_Server]:
        return [s for s in servers if s.up and not s.draining]

    def _run_scalar(self) -> ClusterResult:
        """The scalar per-request callback engine: the reference that
        tests and the cohort speedup budgets in
        ``benchmarks/test_budgets.py`` compare cohort runs with."""
        sim = Simulation()
        rng = random.Random(self._seed)
        # Stream-identical fast path for rng.expovariate: same values from
        # the same generator state, without the per-draw method dispatch.
        sample_exp = exponential_sampler(rng)
        platform = self._platform
        profile = self._workload.profile
        retry = self._retry
        policy = self._overload
        open_loop = self._arrivals is not None
        tracer = self._tracer
        metrics = self._metrics
        # Request sequence number, the tracer's deterministic sampling
        # key.  Only maintained when tracing is on.
        rid = [0]
        # Gray-failure machinery: drift lookups and the peer-comparison
        # detector.  Both are RNG-free -- drifts are pure functions of
        # simulated time, detection is a pure function of observed
        # latencies -- so enabling either leaves the seeded random
        # stream (and, on a healthy fleet, the request stream) intact.
        drift = (
            self._failslow.table(self._servers)
            if self._failslow is not None else None
        )
        detector: Optional[PeerComparisonDetector] = None
        if self._failslow_detection is not None:
            detector = PeerComparisonDetector(
                self._failslow_detection, self._servers, metrics=metrics
            )
        # Bound once: recording an attempt latency sits on the
        # per-completion hot path, so each server's histogram ``record``
        # is bound directly rather than routed through the detector.
        detector_record = (
            None
            if detector is None
            else tuple(hist.record for hist in detector.histograms)
        )
        detector_report = None if detector is None else detector.report
        spec = self._disk_spec
        servers = [
            _Server(sim, platform,
                    spec.build() if spec else PlatformDiskModel(platform), index)
            for index in range(self._servers)
        ]
        rr_state = {"next": 0}
        blade = (
            Resource(sim, "blade", 1) if self._remote_memory is not None else None
        )
        blade_state = {"up": True, "down_since": 0.0}
        report = FaultReport()

        # --- redundancy / recovery runtime -----------------------------
        # The N redundant blades are capacity/fault-domain state behind
        # the ONE shared blade-controller link above (the paper's single
        # controller per enclosure): foreground transfers and rebuild
        # chunks contend on the same Resource.  Healthy runs never enter
        # the failover branch, so redundancy-on is bit-identical to
        # redundancy-off until a blade actually fails (zero extra RNG).
        redundancy = self._redundancy
        maintenance = self._maintenance
        recovery: Optional[RecoveryOrchestrator] = None
        recovery_report: Optional[RecoveryReport] = None
        if redundancy is not None or (
            maintenance is not None and maintenance.windows
        ):
            recovery_report = RecoveryReport()
        if redundancy is not None and redundancy.policy is not None:
            server_ids = [f"server-{i}" for i in range(self._servers)]
            group = redundancy.build_group(server_ids)
            recovery = RecoveryOrchestrator(
                sim, blade, group, redundancy.rebuild,
                page_latency_us=self._remote_memory.page_latency_us,
                metrics=metrics, trace=tracer is not None,
                report=recovery_report,
            )
            if detector is not None:
                index_of = {sid: i for i, sid in enumerate(server_ids)}

                def _impairment(server_id: str, impaired: bool) -> None:
                    # Failed-over servers paying the data-loss paging
                    # penalty leave the hedge-routable set.
                    detector.set_drained(index_of[server_id], impaired)

                recovery.on_impairment = _impairment
        if redundancy is not None:
            for fault in redundancy.blade_faults:
                if recovery is not None:
                    sim.schedule_at(
                        fault.fail_ms,
                        lambda b=fault.blade: recovery.blade_failed(b),
                    )
                    if fault.repair_ms is not None:
                        sim.schedule_at(
                            fault.repair_ms,
                            lambda b=fault.blade: recovery.blade_repaired(b),
                        )
                else:
                    # Unprotected arm: the same storm, PR 1 degraded
                    # semantics -- every attached server drops to
                    # local-only paging for the outage.
                    def _unprotected_fail() -> None:
                        blade_state["up"] = False
                        blade_state["down_since"] = sim.now
                        recovery_report.blade_failures += 1
                        for s in servers:
                            s.blade_down = True

                    def _unprotected_repair() -> None:
                        blade_state["up"] = True
                        down = sim.now - blade_state["down_since"]
                        report.blade_downtime_ms += down
                        downtime = recovery_report.blade_downtime_ms
                        downtime[0] = downtime.get(0, 0.0) + down
                        recovery_report.blade_repairs += 1
                        for s in servers:
                            s.blade_down = False

                    sim.schedule_at(fault.fail_ms, _unprotected_fail)
                    if fault.repair_ms is not None:
                        sim.schedule_at(fault.repair_ms, _unprotected_repair)

        track_faults = self._faults is not None

        # --- overload-protection runtime -------------------------------
        overload_report: Optional[OverloadReport] = None
        admission: Optional[AdmissionController] = None
        retry_budget: Optional[RetryBudget] = None
        breakers: Optional[List[CircuitBreaker]] = None
        if policy is not None:
            bucket = policy.telemetry_bucket_ms
            overload_report = OverloadReport(
                completed=TimeSeries(bucket_ms=bucket),
                goodput=TimeSeries(bucket_ms=bucket),
                offered=TimeSeries(bucket_ms=bucket),
                breaker_open_series=TimeSeries(bucket_ms=bucket),
            )
            if policy.admission is not None:
                slo_ms = (
                    profile.qos.limit_ms if profile.qos is not None
                    else (retry.timeout_ms if retry is not None else 1000.0)
                )
                admission = AdmissionController(policy.admission, slo_ms, rng)
            if policy.retry_budget is not None:
                retry_budget = RetryBudget(policy.retry_budget)
            if policy.breaker is not None:
                def _on_open(now_ms: float, state_: BreakerState) -> None:
                    if state_ is BreakerState.OPEN:
                        overload_report.breaker_opens += 1
                        overload_report.breaker_open_series.record(now_ms)

                breakers = [
                    CircuitBreaker(policy.breaker, on_transition=_on_open)
                    for _ in servers
                ]

        injector: Optional[FaultInjector] = None
        tracker: Optional[AvailabilityTracker] = None
        if track_faults:
            injector = self._inject_faults(
                sim, servers, blade_state, report, recovery
            )
            tracker = injector.tracker

        if maintenance is not None and maintenance.windows:
            drain_started: Dict[int, float] = {}

            def _drain(index: int) -> None:
                server = servers[index]
                if server.draining:
                    return
                server.draining = True
                drain_started[index] = sim.now
                recovery_report.drains += 1
                if detector is not None:
                    detector.set_drained(index, True)

            def _restore(index: int) -> None:
                server = servers[index]
                if not server.draining:
                    return
                server.draining = False
                recovery_report.drain_ms += sim.now - drain_started.pop(
                    index, sim.now
                )
                if detector is not None:
                    detector.set_drained(index, False)

            schedule_maintenance(
                sim, maintenance.windows, _drain, _restore,
                events=injector.events if injector is not None else None,
            )

        qos = QosTracker(profile.qos) if profile.qos else None
        responses: List[float] = []
        state = {
            "completions": 0, "t0": 0.0, "t1": 0.0, "done": False,
            "offered": 0, "good": 0, "measuring": False,
        }
        if open_loop:
            state["t0"] = self._warmup_ms
            state["t1"] = self._warmup_ms + self._measure_ms
            state["measuring"] = self._warmup_ms == 0.0

        def _measurement_active() -> bool:
            return state["measuring"] and not state["done"]

        if detector is not None:
            eval_interval = self._failslow_detection.eval_interval_ms

            def detector_tick() -> None:
                if state["done"]:
                    return
                for change in detector.evaluate(sim.now):
                    if change.reason == "readmitted" and breakers is not None:
                        # Breaker interplay: the failures the breaker saw
                        # were the gray failure's doing.  A re-admitted
                        # server starts with a clean breaker, or the old
                        # evidence would keep it dark long after probes
                        # proved it healthy.
                        breakers[change.server].reset(sim.now)
                sim.schedule(eval_interval, detector_tick)

            sim.schedule(eval_interval, detector_tick)

        def client_loop() -> None:
            if state["done"]:
                return
            think = (
                sample_exp(1.0 / profile.think_time_ms)
                if profile.think_time_ms > 0
                else 0.0
            )
            sim.schedule(think, issue)

        def issue() -> None:
            if state["done"]:
                return
            request = self._workload.sample(rng)
            rs = _RequestState(request.demand, sim.now)
            if tracer is not None:
                rs.trace = tracer.begin(rid[0], sim.now)
                rid[0] += 1
            if overload_report is not None:
                overload_report.offered.record(sim.now)
            if _measurement_active():
                state["offered"] += 1
            if retry_budget is not None:
                retry_budget.note_request()
            if admission is not None:
                verdict = admission.admit(sim.now)
                if verdict is not AdmissionVerdict.ADMIT:
                    if verdict is AdmissionVerdict.RATE_LIMITED:
                        overload_report.rate_limited += 1
                        shed_name = "rate-limited"
                    else:
                        overload_report.shed_admission += 1
                        shed_name = "admission-shed"
                    if rs.trace is not None:
                        rs.trace.event(SpanKind.SHED, sim.now, name=shed_name)
                        rs.trace.close(sim.now, status="shed")
                    abandon()
                    return
            dispatch_request(rs)

        def _allowed(server: _Server) -> bool:
            """Breaker and queue-cap gate for one candidate server."""
            if breakers is not None and not breakers[server.index].allow(sim.now):
                return False
            if (
                policy is not None
                and policy.queue_cap is not None
                and server.outstanding >= policy.queue_cap
            ):
                return False
            return True

        def dispatch_request(rs: _RequestState) -> None:
            if state["done"] or rs.finished:
                return
            alive = self._alive(servers)
            if not alive:
                # Health check: nobody can serve right now.  Back off and
                # re-probe; a repair or drain end will unblock us.
                report.all_down_waits += 1
                trace = rs.trace
                if trace is not None and trace.status is None:
                    wait = trace.start(
                        SpanKind.RETRY, sim.now, name="health-wait"
                    )

                    def recheck(span=wait) -> None:
                        Trace.finish(span, sim.now)
                        dispatch_request(rs)

                    sim.schedule(HEALTH_RECHECK_MS, recheck)
                else:
                    sim.schedule(HEALTH_RECHECK_MS, lambda: dispatch_request(rs))
                return
            candidates = alive
            # Fast path: with nobody ejected or drained (always, on a
            # healthy fleet) every server is routable and there is
            # nobody to probe, so the filter below would be a no-op.
            if detector is not None and (
                detector.ejected_count or detector.drained_count
            ):
                routable = [
                    s for s in candidates if detector.routable(s.index)
                ]
                if routable:
                    candidates = routable
                    probe_index = detector.take_probe()
                    if probe_index is not None and servers[probe_index].up:
                        # Probation probe: route this request to the
                        # recovering server so it can prove itself.
                        rs.attempts += 1
                        start_attempt(rs, servers[probe_index])
                        return
                else:
                    # Every live server is quarantined: availability
                    # beats ejection, dispatch proceeds as if the
                    # detector were absent.
                    detector.report.quarantine_bypasses += 1
            if breakers is not None:
                candidates = [
                    s for s in candidates if breakers[s.index].allow(sim.now)
                ]
                if not candidates:
                    overload_report.breaker_rejections += 1
                    fast_fail(rs)
                    return
            if policy is not None and policy.queue_cap is not None:
                candidates = [
                    s for s in candidates if s.outstanding < policy.queue_cap
                ]
                if not candidates:
                    overload_report.rejected_queue_full += 1
                    fast_fail(rs)
                    return
            rs.attempts += 1
            start_attempt(rs, self._pick(candidates, rr_state, rng))

        def _schedule_backoff(rs: _RequestState, backoff: float) -> None:
            """Re-dispatch after backoff, tracing the wait when sampled.

            The backoff span is skipped while another attempt (a hedge)
            is still live -- the request is not actually blocked on the
            backoff then, and double-charging would push the trace's
            ``other`` share negative.
            """
            trace = rs.trace
            if trace is not None and trace.status is None and not rs.trace_live:
                span = trace.start(SpanKind.RETRY, sim.now, name="backoff")

                def redispatch() -> None:
                    Trace.finish(span, sim.now)
                    dispatch_request(rs)

                sim.schedule(backoff, redispatch)
            else:
                sim.schedule(backoff, lambda: dispatch_request(rs))

        def retry_or_give_up(rs: _RequestState) -> None:
            """After a failed attempt: bounded, budgeted retry or give up."""
            if state["done"] or rs.finished:
                return
            if retry is not None and rs.attempts <= retry.max_retries:
                if retry_budget is None or retry_budget.try_spend():
                    report.retries += 1
                    _schedule_backoff(rs, retry.backoff_ms(rs.attempts - 1, rng))
                    return
                overload_report.retries_denied += 1
            # Retry budget exhausted (or denied): give up and report the
            # request at its full elapsed time (a QoS casualty, not a
            # silent drop).
            rs.finished = True
            report.gave_up += 1
            trace = rs.trace
            if trace is not None and trace.status is None:
                close_gave_up(trace, sim.now)
            complete(rs.start, served=False)

        def fast_fail(rs: _RequestState) -> None:
            """A dispatch was refused outright (queue full / breakers open).

            Counts as an attempt; the client retries after backoff or
            sees an immediate error (which never enters the latency
            distribution -- it is shed load, not a slow response)."""
            rs.attempts += 1
            if retry is not None and rs.attempts <= retry.max_retries:
                if retry_budget is None or retry_budget.try_spend():
                    report.retries += 1
                    _schedule_backoff(rs, retry.backoff_ms(rs.attempts - 1, rng))
                    return
                overload_report.retries_denied += 1
            rs.finished = True
            if rs.trace is not None and rs.trace.status is None:
                rs.trace.event(SpanKind.SHED, sim.now, name="rejected")
                rs.trace.close(sim.now, status="rejected")
            abandon()

        def start_attempt(
            rs: _RequestState, server: _Server, hedge: bool = False
        ) -> None:
            demand = rs.demand
            brownout = (
                policy is not None
                and policy.brownout is not None
                and server.outstanding >= policy.brownout.enter_outstanding
            )
            if brownout:
                demand = demand.scaled(policy.brownout.demand_factor)
                overload_report.brownout_requests += 1
            probe = (
                breakers[server.index].note_dispatch(sim.now)
                if breakers is not None
                else False
            )
            attempt = _Attempt(server, server.epoch, probe)
            server.outstanding += 1
            dispatched_at = sim.now
            # Per-attempt timeout: static, or percentile-adaptive when
            # the detector carries an AdaptiveTimeoutPolicy (static stays
            # the hard ceiling).  Fixed at dispatch time so the attempt's
            # deadline does not move under it.
            if retry is None:
                attempt_timeout_ms = 0.0
            elif detector is None:
                attempt_timeout_ms = retry.timeout_ms
            else:
                # Inline read of the detector's cached adaptive timeout
                # (recomputed only when the fleet median moves): one
                # attribute load and one comparison per attempt.
                cached = detector.adaptive_timeout_ms
                if cached is None:
                    attempt_timeout_ms = retry.timeout_ms
                else:
                    attempt_timeout_ms = (
                        cached if cached < retry.timeout_ms else retry.timeout_ms
                    )
                    detector_report.last_adaptive_timeout_ms = attempt_timeout_ms

            trace = rs.trace
            if trace is not None and trace.status is None:
                aspan = trace.start(
                    SpanKind.ATTEMPT, dispatched_at,
                    name=f"attempt{rs.attempts}",
                )
                aspan.annotate(server=server.index)
                if hedge:
                    aspan.annotate(hedge=True)
                if brownout:
                    aspan.annotate(brownout=True)
                if rs.trace_live is None:
                    rs.trace_live = []
                rs.trace_live.append(aspan)
                cursor = [dispatched_at]
            else:
                aspan = None
                cursor = None

            def drop_live() -> None:
                if aspan is not None and aspan in (rs.trace_live or ()):
                    rs.trace_live.remove(aspan)

            cpu_ms = platform.cpu_time_ms(
                demand.cpu_ms_ref,
                profile.cache_sensitivity,
                profile.inorder_ipc_factor,
                profile.stall_fraction,
            ) * server.cpu_throttle
            blade_ms = 0.0
            degraded_disk_ms = 0.0
            failover_profile = None
            if self._remote_memory is not None:
                cpu_ms += self._remote_memory.trap_cpu_ms(demand.cpu_ms_ref)
                if recovery is not None and recovery.active:
                    # Redundant placement: a blade is down (or being
                    # rebuilt).  Reads split per the server's current
                    # service profile -- direct, failed over to
                    # surviving copies (amplified for parity
                    # reconstruction), or lost to the swap path.
                    prof = recovery.profile(server_ids[server.index])
                    if prof.healthy:
                        blade_ms = self._remote_memory.link_time_ms(
                            demand.cpu_ms_ref
                        )
                    else:
                        failover_profile = prof
                        blade_ms = self._remote_memory.failover_time_ms(
                            demand.cpu_ms_ref,
                            prof.direct_fraction,
                            prof.failover_fraction,
                            prof.amplification,
                        )
                        if prof.failover_fraction > 0.0:
                            recovery_report.failover_requests += 1
                        if prof.lost_fraction > 0.0:
                            degraded_disk_ms = (
                                self._remote_memory.residual_degraded_time_ms(
                                    demand.cpu_ms_ref, prof.lost_fraction
                                )
                            )
                            recovery_report.lossy_requests += 1
                            report.degraded_requests += 1
                elif server.blade_down:
                    # Blade down, unprotected: local-memory-only mode.
                    # Capacity misses page in from the swap path on the
                    # server's own disk instead of crossing the (dead)
                    # link.
                    degraded_disk_ms = self._remote_memory.degraded_time_ms(
                        demand.cpu_ms_ref
                    )
                    report.degraded_requests += 1
                else:
                    blade_ms = self._remote_memory.link_time_ms(demand.cpu_ms_ref)
            if drift is not None:
                # Gray-failure drift, evaluated once at dispatch time
                # (pure function of simulated time; zero RNG).
                lane = drift.cpu[server.index]
                if lane is not None:
                    cpu_ms *= DriftTable.scale(lane, dispatched_at)
                lane = drift.remote[server.index]
                if lane is not None and blade_ms > 0.0:
                    blade_ms *= DriftTable.scale(lane, dispatched_at)
            mem_ms = platform.memory_channel_time_ms(demand.mem_ms_ref)
            cache_was_bypassed = not getattr(server.disk_model, "available", True)
            # Traced attempts ask the disk model for its typed breakdown
            # (flash hit vs backing disk); untraced attempts take the
            # plain total.  Both consume identical RNG draws because
            # ``service_ms`` delegates to ``service_components``.
            disk_parts = None
            if aspan is not None:
                disk_parts = list(server.disk_model.service_components(
                    demand.disk_ios, demand.disk_bytes, demand.disk_write, rng
                ))
                disk_service = sum(part[2] for part in disk_parts)
            else:
                disk_service = server.disk_model.service_ms(
                    demand.disk_ios, demand.disk_bytes, demand.disk_write, rng
                )
            if drift is not None:
                lane = drift.flash[server.index]
                if lane is not None:
                    # Scale the flash/disk *total* once in both paths:
                    # float multiplication does not distribute over the
                    # per-part sum, so scaling parts and summing would
                    # let traced and untraced attempts drift apart
                    # bitwise.  The per-part breakdown is display-only.
                    flash_mult = DriftTable.scale(lane, dispatched_at)
                    disk_service *= flash_mult
                    if disk_parts:
                        disk_parts = [
                            (kind, name, ms * flash_mult)
                            for kind, name, ms in disk_parts
                        ]
            if disk_parts is not None and degraded_disk_ms > 0.0:
                disk_parts.append(("disk", "degraded-swap", degraded_disk_ms))
            disk_ms = disk_service + degraded_disk_ms
            if cache_was_bypassed:
                report.cache_bypassed_requests += 1
            net_ms = platform.net_time_ms(demand.net_bytes)
            if drift is not None:
                lane = drift.nic[server.index]
                if lane is not None:
                    net_ms *= DriftTable.scale(lane, dispatched_at)

            def lost() -> bool:
                return attempt.epoch != server.epoch

            def record_outcome(ok: bool) -> None:
                if breakers is not None:
                    breaker = breakers[server.index]
                    if ok:
                        breaker.record_success(sim.now, attempt.probe)
                    else:
                        breaker.record_failure(sim.now, attempt.probe)

            def cancel_timers() -> None:
                # The attempt reached a terminal state before its timers
                # fired; reclaim the dead heap entries (the guarded
                # callbacks would have been no-ops, so behaviour is
                # unchanged -- the heap just stays small).
                if attempt.timer:
                    sim.cancel(attempt.timer)
                    attempt.timer = 0
                if attempt.hedge_timer:
                    sim.cancel(attempt.hedge_timer)
                    attempt.hedge_timer = 0

            def done() -> None:
                if lost():
                    return
                server.outstanding -= 1
                attempt.done = True
                cancel_timers()
                if attempt.void:
                    return
                record_outcome(ok=True)
                if recovery is not None:
                    # Feed the rebuild throttle's backpressure EWMA.
                    recovery.observe_foreground(sim.now - dispatched_at)
                if detector_record is not None:
                    # Wasted completions still score: the attempt's
                    # latency is evidence of the server's speed whether
                    # or not it won the race.
                    detector_record[server.index](sim.now - dispatched_at)
                if rs.finished:
                    report.wasted_completions += 1
                    return
                rs.finished = True
                server.completions += 1
                if aspan is not None and trace.status is None:
                    record_stage(
                        trace, aspan, cursor[0], sim.now, SpanKind.NET, net_ms
                    )
                    Trace.finish(aspan, sim.now)
                    drop_live()
                    trace.close(sim.now, status="ok")
                complete(rs.start, served=True)

            def after_disk() -> None:
                if lost():
                    return
                if aspan is not None and trace.status is None:
                    record_stage_parts(
                        trace, aspan, cursor[0], sim.now, disk_parts, disk_ms
                    )
                    cursor[0] = sim.now
                server.nic.acquire(net_ms, done)

            def after_blade() -> None:
                if lost():
                    return
                server.disk.acquire(disk_ms, after_disk)

            def after_mem() -> None:
                if lost():
                    return
                if aspan is not None and trace.status is None:
                    record_stage(
                        trace, aspan, cursor[0], sim.now, SpanKind.MEM, mem_ms
                    )
                    cursor[0] = sim.now
                if blade is not None and blade_ms > 0 and blade_state["up"]:
                    if aspan is None:
                        blade.acquire(blade_ms, after_blade)
                    else:
                        def traced_after_blade() -> None:
                            if lost():
                                return
                            if trace.status is None:
                                span = record_stage(
                                    trace, aspan, cursor[0], sim.now,
                                    SpanKind.REMOTE_MEM, blade_ms,
                                    name="blade-link",
                                )
                                span.annotate(
                                    **self._remote_memory.span_attrs(
                                        demand.cpu_ms_ref
                                    )
                                )
                                if failover_profile is not None:
                                    span.annotate(
                                        failover=round(
                                            failover_profile.failover_fraction,
                                            4,
                                        ),
                                        lost=round(
                                            failover_profile.lost_fraction, 4
                                        ),
                                    )
                                if recovery is not None and recovery.rebuilding:
                                    # Attribution hook: this transfer
                                    # shared the link with an active
                                    # rebuild stream.
                                    span.annotate(rebuild=True)
                                cursor[0] = sim.now
                            after_blade()

                        blade.acquire(blade_ms, traced_after_blade)
                else:
                    after_blade()

            def after_cpu() -> None:
                if lost():
                    return
                if aspan is not None and trace.status is None:
                    # One slice: the contiguous-service interval is
                    # exact.  Sliced requests report the last slice's
                    # share and annotate the fan-out.
                    span = record_stage(
                        trace, aspan, cursor[0], sim.now, SpanKind.CPU,
                        cpu_ms / slices,
                    )
                    if slices > 1:
                        span.annotate(slices=slices)
                    cursor[0] = sim.now
                server.mem.acquire(mem_ms, after_mem)

            service_floor_ms = cpu_ms + mem_ms + blade_ms + disk_ms + net_ms

            def cpu_gate() -> bool:
                """Called when a CPU core would start serving this attempt.

                Feeds the observed queueing delay to admission control
                and, with deadline shedding, drops stale work: an attempt
                whose timeout already fired while it queued, or whose
                remaining budget cannot cover even the raw service time,
                is cancelled instead of served uselessly."""
                if lost():
                    return False
                if admission is not None:
                    admission.observe_delay(sim.now - dispatched_at)
                if policy is None or not policy.deadline_shedding:
                    return True
                if attempt.void:
                    # Timed out while queued; the timeout handler already
                    # arranged the retry -- just shed the stale work.
                    overload_report.shed_deadline += 1
                    server.outstanding -= 1
                    if aspan is not None and trace.status is None:
                        trace.event(
                            SpanKind.SHED, sim.now, parent=aspan,
                            name="stale-shed",
                        )
                    return False
                if retry is not None and (
                    sim.now - dispatched_at + service_floor_ms
                    > attempt_timeout_ms
                ):
                    # Provably cannot meet the deadline: fail fast now
                    # rather than waiting for the timeout to notice.
                    attempt.void = True
                    overload_report.shed_deadline += 1
                    server.outstanding -= 1
                    if aspan is not None and trace.status is None:
                        # The whole attempt so far was queueing; charge
                        # it to the critical path as queue time unless a
                        # hedge is still covering the request.
                        aspan.critical = False
                        Trace.finish(aspan, sim.now)
                        aspan.annotate(shed="deadline")
                        drop_live()
                        if not rs.trace_live:
                            Trace.finish(
                                trace.start(
                                    SpanKind.QUEUE, dispatched_at,
                                    name="shed-wait",
                                ),
                                sim.now,
                            )
                        trace.event(
                            SpanKind.SHED, sim.now, name="deadline-shed"
                        )
                    record_outcome(ok=False)
                    cancel_timers()
                    retry_or_give_up(rs)
                    return False
                return True

            gate = cpu_gate if policy is not None else None
            slices = max(1, min(platform.cpu.total_cores, demand.cpu_parallelism))
            if slices == 1:
                server.cpu.acquire(cpu_ms, after_cpu, on_start=gate)
            else:
                join = {"left": slices}

                def slice_done() -> None:
                    join["left"] -= 1
                    if join["left"] == 0:
                        after_cpu()

                # The gate decides once, on the first slice to reach a
                # core; cancelling it abandons the whole attempt (the
                # other slices see the void flag).
                decision = {"made": False, "serve": True}

                def slice_gate() -> bool:
                    if not decision["made"]:
                        decision["made"] = True
                        decision["serve"] = gate() if gate is not None else True
                        if not decision["serve"]:
                            join["left"] = -1
                    elif join["left"] < 0:
                        return False
                    return decision["serve"]

                for _ in range(slices):
                    server.cpu.acquire(
                        cpu_ms / slices, slice_done,
                        on_start=slice_gate if gate is not None else None,
                    )

            if retry is None:
                return

            def on_timeout() -> None:
                if (
                    state["done"] or rs.finished or attempt.done
                    or attempt.void
                ):
                    return
                attempt.void = True
                report.timeouts += 1
                if recovery is not None:
                    # A timeout is a floor on the foreground latency --
                    # the strongest backpressure evidence there is.
                    recovery.observe_foreground(attempt_timeout_ms)
                if detector_record is not None:
                    # A timeout is a floor on the true latency -- strong
                    # evidence, recorded at the timeout value.
                    detector_record[server.index](attempt_timeout_ms)
                if aspan is not None and trace.status is None:
                    # The abandoned attempt's work leaves the critical
                    # path; the wait it cost the request becomes a retry
                    # span -- unless a hedge is still live, in which case
                    # the request was never actually blocked on it.
                    aspan.critical = False
                    if aspan.end_ms is None:
                        Trace.finish(aspan, sim.now)
                    aspan.annotate(timeout=True)
                    drop_live()
                    if not rs.trace_live:
                        Trace.finish(
                            trace.start(
                                SpanKind.RETRY, dispatched_at,
                                name="timeout-wait",
                            ),
                            sim.now,
                        )
                record_outcome(ok=False)
                retry_or_give_up(rs)

            attempt.timer = sim.schedule_timer(attempt_timeout_ms, on_timeout)

            if retry.hedge_after_ms is None or hedge or rs.hedged:
                return

            def maybe_hedge() -> None:
                if (
                    state["done"] or rs.finished or attempt.done
                    or attempt.void or rs.hedged
                ):
                    return
                alive = self._alive(servers)
                others = [
                    s for s in alive if s is not server and _allowed(s)
                ] or [s for s in alive if _allowed(s)]
                if not others:
                    # No server can take the duplicate; count the missed
                    # hedge instead of vanishing silently.
                    report.hedges_dropped += 1
                    return
                rs.hedged = True
                rs.attempts += 1
                report.hedges += 1
                # Pick with the shared RNG from the naive candidate set
                # first (identical draw sequence whether or not detection
                # is on), then redirect deterministically if the pick
                # landed on a quarantined/probation server: a hedge's
                # whole point is a *fast* second opinion.
                target = self._pick(others, rr_state, rng)
                if (
                    detector is not None
                    and (detector.ejected_count or detector.drained_count)
                    and not detector.routable(target.index)
                ):
                    routable = [
                        s for s in others if detector.routable(s.index)
                    ]
                    if routable:
                        target = min(
                            routable,
                            key=lambda s: (s.outstanding, s.index),
                        )
                        report.hedge_redirects += 1
                start_attempt(rs, target, hedge=True)

            attempt.hedge_timer = sim.schedule_timer(
                retry.hedge_after_ms, maybe_hedge
            )

        def _record_response(start_ms: float, served: bool) -> None:
            response = sim.now - start_ms
            responses.append(response)
            if qos is not None:
                qos.record(response)
            good = served and (
                qos is None or response <= profile.qos.limit_ms
            )
            if good:
                state["good"] += 1
            if metrics is not None:
                metrics.histogram("cluster.response_ms").record(response)
                metrics.counter(
                    "cluster.requests",
                    outcome="served" if served else "gave_up",
                ).inc()

        def complete(start_ms: float, served: bool = True) -> None:
            """A request finished: served, or given up after timeouts."""
            if overload_report is not None and served:
                overload_report.completed.record(sim.now)
                if qos is None or sim.now - start_ms <= profile.qos.limit_ms:
                    overload_report.goodput.record(sim.now)
            if open_loop:
                if not state["done"] and start_ms >= state["t0"]:
                    _record_response(start_ms, served)
                return
            state["completions"] += 1
            if state["completions"] == self._warmup:
                state["t0"] = sim.now
                state["measuring"] = True
            elif state["completions"] > self._warmup and not state["done"]:
                _record_response(start_ms, served)
                if state["completions"] >= self._warmup + self._measure:
                    state["done"] = True
                    state["t1"] = sim.now
                    sim.stop()
                    return
            client_loop()

        def abandon() -> None:
            """A request was shed/rejected: an error, not a latency sample."""
            if open_loop:
                return
            state["completions"] += 1
            if state["completions"] == self._warmup:
                state["t0"] = sim.now
                state["measuring"] = True
            elif state["completions"] >= self._warmup + self._measure:
                state["done"] = True
                state["t1"] = sim.now
                sim.stop()
                return
            client_loop()

        if open_loop:
            schedule = self._arrivals

            def schedule_arrival() -> None:
                if state["done"]:
                    return
                rate_per_ms = schedule.rate_rps(sim.now) / 1000.0
                sim.schedule(sample_exp(rate_per_ms), arrive)

            def arrive() -> None:
                if state["done"]:
                    return
                schedule_arrival()
                issue()

            def begin_measurement() -> None:
                state["measuring"] = True

            def end_run() -> None:
                state["done"] = True
                sim.stop()

            if self._warmup_ms > 0:
                sim.schedule_at(self._warmup_ms, begin_measurement)
            sim.schedule_at(state["t1"], end_run)
            schedule_arrival()
        else:
            for _ in range(self._clients):
                client_loop()
        sim.run()

        if not state["done"]:
            raise RuntimeError("cluster simulation ended before measurement")
        if not blade_state["up"]:
            down = sim.now - blade_state["down_since"]
            report.blade_downtime_ms += down
            blade_state["down_since"] = sim.now
            if recovery_report is not None and recovery is None:
                downtime = recovery_report.blade_downtime_ms
                downtime[0] = downtime.get(0, 0.0) + down
        if tracker is not None:
            tracker.finalize(sim.now)
        if recovery is not None:
            recovery.finalize(sim.now)
        if maintenance is not None and maintenance.windows:
            # Windows still open when measurement ended.
            for index, since in list(drain_started.items()):
                recovery_report.drain_ms += sim.now - since
                drain_started.pop(index)
        if injector is not None:
            report.injected_failures = {
                ctype.value: count
                for ctype, count in injector.failure_counts.items()
            }
        if tracer is not None:
            tracer.finalize(sim.now)
        failslow_report: Optional[FailSlowReport] = None
        if detector is not None:
            failslow_report = detector.finalize(sim.now)
        if self._failslow is not None:
            if failslow_report is None:
                failslow_report = FailSlowReport()
            failslow_report.drifting_servers = self._failslow.drifting_servers
        window_s = max(state["t1"] - state["t0"], 1e-9) / 1000.0
        throughput = len(responses) / window_s
        if metrics is not None:
            metrics.counter("cluster.timeouts").inc(report.timeouts)
            metrics.counter("cluster.retries").inc(report.retries)
            metrics.counter("cluster.hedges").inc(report.hedges)
            metrics.counter("cluster.gave_up").inc(report.gave_up)
            metrics.counter("cluster.lost_in_flight").inc(report.lost_in_flight)
            metrics.gauge("cluster.throughput_rps").set(throughput)
            if failslow_report is not None:
                metrics.counter("cluster.failslow.ejections").inc(
                    failslow_report.ejections
                )
                metrics.counter("cluster.failslow.readmissions").inc(
                    failslow_report.readmissions
                )
                metrics.counter("cluster.failslow.probes").inc(
                    failslow_report.probes
                )
            for server in servers:
                metrics.gauge(
                    "cluster.completions", server=server.index
                ).set(server.completions)
                cache = getattr(server.disk_model, "cache", None)
                if cache is not None:
                    cache.export_metrics(metrics, server=server.index)
        # A recovery run only attaches the fault report when its config
        # can actually produce fault activity (scripted blade faults or
        # maintenance drains): attaching an all-zero report to a healthy
        # protected run would break its digest equality with the
        # unprotected stream.
        recovery_activity = (
            redundancy is not None and bool(redundancy.blade_faults)
        ) or (maintenance is not None and bool(maintenance.windows))
        attach_report = (
            track_faults or retry is not None or policy is not None
            or recovery_activity
        )
        return ClusterResult(
            servers=self._servers,
            throughput_rps=throughput,
            mean_response_ms=(
                sum(responses) / len(responses) if responses else 0.0
            ),
            qos_percentile_ms=(
                qos.percentile_ms() if qos and qos.count else 0.0
            ),
            qos_met=qos.satisfied() if qos else True,
            per_server_rps=throughput / self._servers,
            server_completions=[s.completions for s in servers],
            qos_violation_rate=qos.violation_rate() if qos else 0.0,
            availability=(
                tracker.mean_availability("rotation/")
                if tracker is not None
                else 1.0
            ),
            fault_report=report if attach_report else None,
            offered_rps=state["offered"] / window_s,
            goodput_rps=state["good"] / window_s,
            p99_ms=(
                qos.percentile_ms(0.99) if qos and qos.count else 0.0
            ),
            overload_report=overload_report,
            failslow_report=failslow_report,
            recovery_report=recovery_report,
        )
