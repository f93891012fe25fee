"""Cohort request-lifecycle engine for the serving-tier cluster DES.

The scalar :meth:`repro.cluster.balancer.ClusterSimulator.run` models each
request attempt as a chain of per-stage Python closures threaded through
four :class:`~repro.simulator.resources.Resource` objects -- a dozen
closure allocations and as many dynamic dispatches per attempt.  On the
open-loop surge benchmark that loop, not the model, is the cost: the
``cluster_surge`` bench sustained ~70k simulated-ms per wall-second while
the rack engine (PR 8) moved millions of events per second.

:func:`run_cohort` replaces the callback web with one flat event loop over
plain tuples ``(time, key, a, b)`` (``key`` packs the push sequence
number with the event kind in its low 4 bits) -- the *cohort* of state
needed per event rides in two plain lists instead of captured cells --
while reproducing the scalar path's behaviour **bit for bit**:

- every ``random.Random`` consumer (inter-arrival draws, workload
  sampling via :attr:`~repro.workloads.base.Workload.fast_demand`,
  admission shed draws, least-outstanding tie-breaks, full-jitter
  backoff) runs in exactly the scalar order on the shared generator, so
  the uniform stream is identical;
- the CPU and memory stations replicate :class:`Resource`'s grant
  algorithm exactly (free-station grant, FIFO queueing, the ``on_start``
  gate loop that cancels deadline-shed work and immediately grants the
  next waiter, grant-before-completion-callback ordering on finish);
- the disk and NIC stations -- both single-server FIFO queues whose
  service time is fixed at dispatch -- are advanced as carry-seeded
  Lindley recurrences instead of discrete events: at an attempt's
  memory-stage completion, ``dep = max(now, carry) + svc`` per station
  reproduces, operation for operation, the floats the event-at-a-time
  grant would compute (grant-at-entry when the station is free, grant
  at the previous departure otherwise), because a k=1 FIFO station's
  departure order equals its entry order and nothing observable reads
  the station state in between.  Only the final attempt-complete event
  returns to the heap;
- service times come from the same platform formulas with loop-invariant
  factors hoisted only where IEEE semantics make the hoist bitwise-safe
  (e.g. ``cpu_ms_ref * (stall + (1 - stall) * scaling)`` -- the
  parenthesised factor never depends on the request);
- event tie-breaking matches the scalar engine's FIFO ``seq`` order:
  this loop schedules the surviving events at the same points, in the
  same order, as the scalar code's ``schedule``/``schedule_timer``
  calls, and the events the Lindley collapse removes (disk/NIC stage
  completions) carry no observable side effects.  The collapsed
  attempt-complete event is pushed earlier (at memory completion, not
  NIC grant), which could only reorder it against an unrelated event
  landing on the *identical* float timestamp in that window; event
  times here are sums of continuous variates, and the structural
  equal-time cases (same-server chains, timeout-vs-completion races)
  keep their relative order because their seq assignments keep their
  relative order.

``ClusterResult.stream_digest()`` equality between the two engines is a
hard test invariant (``tests/cluster/test_cohort_engine.py``).

Two deliberate deviations from a naive "vectorize everything" plan, both
forced by the stream-identity contract: inter-arrival variates cannot be
bulk-drawn with :func:`repro.perf.variates.exponential_block` because
the arrival draws *interleave* with workload/admission draws on the
shared generator (and the numpy log mapping differs in the last ulp),
so arrivals use the inlined :func:`~repro.perf.variates
.exponential_sampler` form instead -- same values, same stream, one
C-level ``random()`` per draw.  Likewise the CPU and memory stations
stay event-driven: the CPU gate (deadline shedding, admission EWMA)
makes grant decisions that feed back into the shared stream, and a
multi-channel memory station's completion order can overtake its entry
order, so neither is a Lindley recurrence.

Latency recording is batched: detector histograms buffer per-server
attempt latencies and flush through
:meth:`~repro.simulator.telemetry.LatencyHistogram.record_many`
immediately before each detector evaluation (the evaluator reads only
bucket counts, which ``record_many`` computes exactly), and the metrics
response histogram is flushed once at the end of the run.

Features the kernels do not model fall back to the scalar path
automatically (see :func:`cohort_supported`): closed-loop mode, tracing,
remote memory, stochastic or scripted faults, redundancy/rebuild
traffic, maintenance drains, and non-default disk models.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from math import log
from typing import List, Optional, Tuple

from repro.cluster.overload import (
    AdmissionController,
    AdmissionVerdict,
    BreakerState,
    CircuitBreaker,
    OverloadReport,
    RetryBudget,
)
from repro.faults.failslow import DriftTable, FailSlowReport, PeerComparisonDetector
from repro.simulator.engine import PAST_EPSILON_MS, PAST_RELATIVE_EPSILON
from repro.simulator.server_sim import PlatformDiskModel
from repro.simulator.telemetry import TimeSeries
from repro.workloads.qos import QosTracker

__all__ = ["cohort_supported", "run_cohort", "clamp_phase_delay"]


def clamp_phase_delay(delay_ms: float, now_ms: float) -> float:
    """Clamp a round-off-negative delay to zero, mirroring the engine.

    Cohort window boundaries derived from absolute targets (warmup end,
    measurement end, :class:`~repro.cluster.overload.SurgeSchedule`
    phase edges) are computed as ``target - now``; float round-off can
    land that one ulp in the past.  This mirrors
    ``Simulation._clamped`` exactly -- the same absolute epsilon plus a
    relative term scaled by the clock -- so a boundary event never
    raises (or, worse, silently reorders) over the last ulp, while a
    genuinely past target still fails loudly.
    """
    if delay_ms >= 0.0:
        return delay_ms
    if delay_ms >= -(PAST_EPSILON_MS + PAST_RELATIVE_EPSILON * now_ms):
        return 0.0
    raise ValueError(f"cannot schedule in the past (delay {delay_ms})")


def cohort_supported(csim) -> Tuple[bool, str]:
    """Can ``csim`` run on the cohort engine with an identical digest?

    Returns ``(True, "")`` or ``(False, reason)``.  The reason string is
    stored on the simulator as ``fallback_reason`` so tests (and users)
    can see why a run routed to the scalar path.
    """
    if csim._arrivals is None:
        return False, "closed-loop mode"
    if csim._tracer is not None:
        return False, "tracer attached"
    if csim._remote_memory is not None:
        return False, "remote memory blade"
    if csim._faults is not None:
        return False, "stochastic fault injection"
    if csim._failures or csim._recoveries:
        return False, "scripted failures/recoveries"
    if csim._redundancy is not None:
        return False, "redundancy/rebuild traffic"
    if csim._maintenance is not None and csim._maintenance.windows:
        return False, "maintenance drains"
    # The kernels inline the platform disk-time formula; any other disk
    # model (flash cache, degraded modes) keeps the scalar path.
    probe = csim._disk_model_factory()
    if type(probe) is not PlatformDiskModel:
        return False, f"disk model {type(probe).__name__}"
    if probe._platform is not csim._platform:
        return False, "disk model bound to a different platform"
    return True, ""


# Per-request and per-attempt state ride in plain lists: creating a
# slotted instance costs a type call plus one STORE_ATTR per field,
# which at one request record and ~1.07 attempt records per arrival was
# a measurable slice of the hot loop.  Index layout (the ``rs`` list
# mirrors the scalar ``_RequestState``; ``att`` mirrors ``_Attempt``
# plus the per-attempt service times the scalar path kept in closure
# cells):
#
#   rs  = [d, start, attempts, finished, hedged]
#          0  1      2         3         4
#   att = [rs, server, void, done, probe, t0, timeout_ms, mem_ms,
#          0   1       2     3     4      5   6           7
#          disk_ms, net_ms, floor, left, decided, serve, batch]
#          8        9       10     11    12       13     14
#
# ``att[14]`` (batch) counts the CPU slice completions the attempt's
# next _K_CPU event stands for: >1 when every slice was granted at
# dispatch (they share one service time, so their finish events would
# pop back-to-back anyway and coalesce into one heap entry).


class _Srv:
    """One server's stage state.

    CPU and memory are event-driven stations replicating the scalar
    :class:`Resource` (busy count + FIFO queue); disk and NIC are the
    carry floats of their Lindley recurrences (next free time).
    """

    __slots__ = (
        "index", "outstanding", "completions",
        "cpu_busy", "cpu_q", "mem_busy", "mem_q",
        "disk_free", "nic_free", "brk",
    )

    def __init__(self, index: int):
        self.index = index
        self.outstanding = 0
        self.completions = 0
        self.cpu_busy = 0
        self.cpu_q = deque()
        self.mem_busy = 0
        self.mem_q = deque()
        self.disk_free = 0.0
        self.nic_free = 0.0
        #: This server's circuit breaker (None when breakers are off) --
        #: saves the breakers[server.index] double lookup on the hot path.
        self.brk = None


class _St:
    """Mutable run state shared between the loop and its helpers."""

    __slots__ = ("done", "measuring", "offered", "good")

    def __init__(self, measuring: bool):
        self.done = False
        self.measuring = measuring
        self.offered = 0
        self.good = 0


# Event kinds, ordered by hot-path frequency.
_K_CPU = 0
_K_MEM = 1
_K_DONE = 2
_K_ARRIVE = 3
_K_TIMEOUT = 4
_K_HEDGE = 5
_K_BACKOFF = 6
_K_TICK = 7
_K_BEGIN = 8
_K_END = 9


def run_cohort(csim):
    """Run one open-loop cluster simulation on the cohort engine.

    ``csim`` is a :class:`~repro.cluster.balancer.ClusterSimulator` whose
    configuration passed :func:`cohort_supported`.  Returns the same
    :class:`~repro.cluster.balancer.ClusterResult` -- same
    ``stream_digest()`` -- the scalar path would have produced.
    """
    from repro.cluster.balancer import ClusterResult, Dispatch, FaultReport

    rng = random.Random(csim._seed)
    _random = rng.random
    _getrandbits = rng.getrandbits
    _log = log

    platform = csim._platform
    workload = csim._workload
    profile = workload.profile
    retry = csim._retry
    policy = csim._overload
    schedule = csim._arrivals
    metrics = csim._metrics
    nservers = csim._servers
    assert policy is not None  # open-loop runs always carry a policy

    fast_sample = workload.fast_demand

    # --- hoisted service-time constants (bitwise-safe hoists only) ----
    (cpu_factor, mem_div, disk_read_lat, disk_write_lat, disk_denom,
     nic_overhead, nic_denom) = platform.service_constants(
        profile.cache_sensitivity,
        profile.inorder_ipc_factor,
        profile.stall_fraction,
    )
    cpu_k = platform.cpu.total_cores
    mem_k = platform.memory.channels

    # --- gray-failure machinery ---------------------------------------
    drift = (
        csim._failslow.table(nservers) if csim._failslow is not None else None
    )
    if drift is not None:
        drift_cpu, drift_nic, drift_flash = drift.cpu, drift.nic, drift.flash
        drift_scale = DriftTable.scale
    detector: Optional[PeerComparisonDetector] = None
    if csim._failslow_detection is not None:
        detector = PeerComparisonDetector(
            csim._failslow_detection, nservers, metrics=metrics
        )
    det_report = None if detector is None else detector.report
    # Batched latency recording: per-server buffers flushed through
    # LatencyHistogram.record_many right before every detector
    # evaluation (which reads only counts -- exact under record_many).
    det_buf: Optional[List[list]] = (
        None if detector is None else [[] for _ in range(nservers)]
    )

    servers = [_Srv(index) for index in range(nservers)]
    # Build (and keep, for the metrics cache export hook) the same disk
    # models the scalar path would -- all PlatformDiskModel here, whose
    # service time is inlined below and which consumes no RNG.
    disk_models = [csim._disk_model_factory() for _ in range(nservers)]
    rr_next = 0
    report = FaultReport()

    # --- overload-protection runtime ----------------------------------
    bucket = policy.telemetry_bucket_ms
    overload_report = OverloadReport(
        completed=TimeSeries(bucket_ms=bucket),
        goodput=TimeSeries(bucket_ms=bucket),
        offered=TimeSeries(bucket_ms=bucket),
        breaker_open_series=TimeSeries(bucket_ms=bucket),
    )
    admission: Optional[AdmissionController] = None
    retry_budget: Optional[RetryBudget] = None
    breakers: Optional[List[CircuitBreaker]] = None
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
            for _ in range(nservers)
        ]
        for srv, brk in zip(servers, breakers):
            srv.brk = brk

    queue_cap = policy.queue_cap
    deadline_shedding = policy.deadline_shedding
    brownout = policy.brownout
    if brownout is not None:
        brownout_enter = brownout.enter_outstanding
        brownout_factor = brownout.demand_factor
    round_robin = csim._dispatch is Dispatch.ROUND_ROBIN
    retry_max = retry.max_retries if retry is not None else 0
    retry_timeout = retry.timeout_ms if retry is not None else 0.0
    hedge_after = retry.hedge_after_ms if retry is not None else None
    if retry is not None:
        backoff_base = retry.backoff_base_ms
        backoff_factor = retry.backoff_factor
        jitter = retry.jitter

    # Protection-stack fast paths: the closed-breaker / admit / deposit
    # cases are single compares or float ops, inlined below with the
    # originals' exact arithmetic; every other transition falls through
    # to the real object methods.
    _CLOSED = BreakerState.CLOSED
    _HALF_OPEN = BreakerState.HALF_OPEN
    if admission is not None:
        adm_bucket = admission._bucket
        adm_a = admission.policy.ewma_alpha
        adm_1ma = 1 - adm_a
        adm_threshold = admission.policy.slo_fraction * slo_ms
        adm_max_shed = admission.policy.max_shed_probability
    if retry_budget is not None:
        rb_ratio = retry_budget.policy.token_ratio
        rb_burst = retry_budget.policy.burst

    qos = QosTracker(profile.qos) if profile.qos else None
    qos_record = qos.record if qos is not None else None
    qos_samples = qos._samples if qos is not None else None
    qos_limit = profile.qos.limit_ms if profile.qos is not None else 0.0
    responses: List[float] = []
    responses_append = responses.append
    # Inlined TimeSeries.record targets: the three per-request series.
    completed_b = overload_report.completed._buckets
    goodput_b = overload_report.goodput._buckets
    offered_b = overload_report.offered._buckets
    # Metrics batching: responses flushed through record_many, outcome
    # counters accumulated and inc'd once.
    has_metrics = metrics is not None
    resp_buf: List[float] = []
    m_outcomes = [0, 0]  # served, gave_up

    t0 = csim._warmup_ms
    t1 = csim._warmup_ms + csim._measure_ms
    st = _St(measuring=csim._warmup_ms == 0.0)

    # Heap events are 4-tuples ``(time, key, a, b)`` where ``key`` packs
    # the strictly-increasing push sequence number with the event kind in
    # the low 4 bits (``key = seq + kind``, ``seq`` advancing by 16 per
    # push, kinds < 16).  Key order equals push order at equal times --
    # exactly the 5-tuple ``(time, seq, kind, ...)`` ordering -- with one
    # less tuple element to allocate and compare per event.
    heap: list = []
    seq = 0

    def push(time: float, kind: int, a, b) -> None:
        nonlocal seq
        seq += 16
        heappush(heap, (time, seq + kind, a, b))

    def push_at(now: float, target: float, kind: int, a, b) -> None:
        """Schedule at an absolute target, clamping phase-edge round-off."""
        push(now + clamp_phase_delay(target - now, now), kind, a, b)

    # --- request lifecycle helpers ------------------------------------

    def flush_detector() -> None:
        for index, buf in enumerate(det_buf):
            if buf:
                detector.histograms[index].record_many(buf)
                del buf[:]

    def complete(now: float, start_ms: float, served: bool) -> None:
        if served:
            i = int(now / bucket)
            completed_b[i] = completed_b.get(i, 0.0) + 1.0
            if qos is None or now - start_ms <= qos_limit:
                goodput_b[i] = goodput_b.get(i, 0.0) + 1.0
        if not st.done and start_ms >= t0:
            # _record_response
            response = now - start_ms
            responses_append(response)
            if qos_record is not None:
                qos_record(response)
            if served and (qos is None or response <= qos_limit):
                st.good += 1
            if has_metrics:
                resp_buf.append(response)
                m_outcomes[0 if served else 1] += 1

    def schedule_backoff(now: float, rs: list) -> None:
        # retry.backoff_ms(attempts - 1, rng), inlined: the uniform
        # full-jitter draw is rng.uniform(0.0, ceiling) verbatim.
        ceiling = backoff_base * backoff_factor ** max(rs[2] - 1, 0)
        if jitter:
            backoff = 0.0 + (ceiling - 0.0) * _random()
        else:
            backoff = ceiling
        push(now + backoff, _K_BACKOFF, rs, None)

    def retry_or_give_up(now: float, rs: list) -> None:
        if st.done or rs[3]:
            return
        if retry is not None and rs[2] <= retry_max:
            if retry_budget is None or retry_budget.try_spend():
                report.retries += 1
                schedule_backoff(now, rs)
                return
            overload_report.retries_denied += 1
        rs[3] = True
        report.gave_up += 1
        complete(now, rs[1], False)

    def fast_fail(now: float, rs: list) -> None:
        rs[2] += 1
        if retry is not None and rs[2] <= retry_max:
            if retry_budget is None or retry_budget.try_spend():
                report.retries += 1
                schedule_backoff(now, rs)
                return
            overload_report.retries_denied += 1
        rs[3] = True
        # abandon() is a no-op in open-loop mode.

    def cpu_gate(now: float, att: list) -> bool:
        """The scalar ``cpu_gate``/``slice_gate`` pair: decide once per
        attempt at the first slice to reach a core."""
        if att[12]:
            return att[13]
        att[12] = True
        if admission is not None:
            # observe_delay(now - t0), inlined ((1-a) hoisted; same ops).
            admission._delay_ewma = (
                adm_1ma * admission._delay_ewma + adm_a * (now - att[5])
            )
        if not deadline_shedding:
            att[13] = True
            return True
        if att[2]:
            # Timed out while queued; the timeout handler already
            # arranged the retry -- just shed the stale work.
            overload_report.shed_deadline += 1
            att[1].outstanding -= 1
            return False
        if retry is not None and now - att[5] + att[10] > att[6]:
            # Provably cannot meet the deadline: fail fast now.
            att[2] = True
            overload_report.shed_deadline += 1
            att[1].outstanding -= 1
            if breakers is not None:
                breakers[att[1].index].record_failure(now, att[4])
            retry_or_give_up(now, att[0])
            return False
        att[13] = True
        return True

    def start_attempt(now: float, rs: list, server: "_Srv", hedge: bool) -> None:
        nonlocal seq
        d = rs[0]
        if brownout is not None and server.outstanding >= brownout_enter:
            # demand.scaled(factor): the same five per-component products.
            c_cpu = d[0] * brownout_factor
            c_mem = d[1] * brownout_factor
            c_ios = d[2] * brownout_factor
            c_bytes = d[3] * brownout_factor
            c_net = d[4] * brownout_factor
            overload_report.brownout_requests += 1
        else:
            c_cpu = d[0]
            c_mem = d[1]
            c_ios = d[2]
            c_bytes = d[3]
            c_net = d[4]
        probe = (
            breakers is not None
            and breakers[server.index].state is _HALF_OPEN
            and breakers[server.index].note_dispatch(now)
        )
        server.outstanding += 1
        # Per-attempt timeout: static, or percentile-adaptive when the
        # detector carries an AdaptiveTimeoutPolicy.
        if retry is None:
            att_timeout = 0.0
        elif detector is None:
            att_timeout = retry_timeout
        else:
            cached = detector.adaptive_timeout_ms
            if cached is None:
                att_timeout = retry_timeout
            else:
                att_timeout = cached if cached < retry_timeout else retry_timeout
                det_report.last_adaptive_timeout_ms = att_timeout

        cpu_ms = c_cpu * cpu_factor
        mem_ms = c_mem / mem_div
        disk_ms = (
            c_ios * (disk_write_lat if d[5] else disk_read_lat)
            + c_bytes / disk_denom
        )
        net_ms = nic_overhead + c_net / nic_denom
        if drift is not None:
            # Drift evaluated once at dispatch time (pure function of
            # simulated time; zero RNG), like the scalar path.
            lane = drift_cpu[server.index]
            if lane is not None:
                cpu_ms *= drift_scale(lane, now)
            lane = drift_flash[server.index]
            if lane is not None:
                disk_ms *= drift_scale(lane, now)
            lane = drift_nic[server.index]
            if lane is not None:
                net_ms *= drift_scale(lane, now)

        par = d[6]
        slices = par if par < cpu_k else cpu_k
        att = [
            rs, server, False, False, probe, now, att_timeout, mem_ms,
            disk_ms, net_ms, cpu_ms + mem_ms + disk_ms + net_ms, slices,
            False, False, 1,
        ]
        svc = cpu_ms if slices == 1 else cpu_ms / slices
        if server.cpu_busy + slices <= cpu_k:
            # Every slice starts right now and finishes at the same
            # instant with consecutive seqs, so the group coalesces into
            # ONE heap event standing for `slices` completions (see
            # att[14]/batch; the _K_CPU handler replays them back-to-back
            # exactly as the scalar engine would pop them).  The gate
            # decision is inlined for the dispatch-time case: the
            # observed queueing delay is exactly 0.0, so the admission
            # EWMA update reduces to the decay term, and the deadline
            # test reduces to floor > timeout.
            att[12] = True
            if admission is not None:
                admission._delay_ewma *= adm_1ma
            if (
                deadline_shedding and retry is not None
                and att[10] > att_timeout
            ):
                att[2] = True
                overload_report.shed_deadline += 1
                server.outstanding -= 1
                if breakers is not None:
                    breakers[server.index].record_failure(now, probe)
                retry_or_give_up(now, rs)
            else:
                att[13] = True
                att[14] = slices
                server.cpu_busy += slices
                seq += 16
                heappush(heap, (now + svc, seq, server, att))  # + _K_CPU == 0
        else:
            for _ in range(slices):
                if server.cpu_busy < cpu_k:
                    # Free station: the Resource _start path -- gate,
                    # then grant.  (With a free station the queue is
                    # empty by the Resource invariant, so a refused
                    # gate just drops.)
                    if cpu_gate(now, att):
                        server.cpu_busy += 1
                        seq += 16
                        heappush(heap, (now + svc, seq, server, att))
                else:
                    server.cpu_q.append((svc, att))

        if retry is None:
            return
        seq += 16
        heappush(heap, (now + att_timeout, seq + _K_TIMEOUT, att, None))
        if hedge_after is not None and not hedge and not rs[4]:
            seq += 16
            heappush(heap, (now + hedge_after, seq + _K_HEDGE, att, None))

    def allowed(now: float, server: "_Srv") -> bool:
        if breakers is not None and not breakers[server.index].allow(now):
            return False
        if queue_cap is not None and server.outstanding >= queue_cap:
            return False
        return True

    def pick(candidates: List["_Srv"]) -> "_Srv":
        nonlocal rr_next
        if round_robin:
            index = rr_next % len(candidates)
            rr_next = (index + 1) % len(candidates)
            return candidates[index]
        least = min(s.outstanding for s in candidates)
        ties = [s for s in candidates if s.outstanding == least]
        # rng.randrange(len(ties)), inlined (_randbelow_with_getrandbits).
        n = len(ties)
        k = n.bit_length()
        r = _getrandbits(k)
        while r >= n:
            r = _getrandbits(k)
        return ties[r]

    # With no detector and least-outstanding dispatch (the common case),
    # the breaker filter, queue-cap filter, and pick fuse into one pass.
    fused = detector is None and not round_robin

    def dispatch_request(now: float, rs: list) -> None:
        if st.done or rs[3]:
            return
        if fused:
            least = -1
            ties = None
            blocked = True
            for s in servers:
                if breakers is not None:
                    b = breakers[s.index]
                    if b.state is not _CLOSED and not b.allow(now):
                        continue
                blocked = False
                o = s.outstanding
                if queue_cap is not None and o >= queue_cap:
                    continue
                if ties is None or o < least:
                    least = o
                    ties = [s]
                elif o == least:
                    ties.append(s)
            if ties is None:
                if blocked:
                    overload_report.breaker_rejections += 1
                else:
                    overload_report.rejected_queue_full += 1
                fast_fail(now, rs)
                return
            rs[2] += 1
            n = len(ties)
            k = n.bit_length()
            r = _getrandbits(k)
            while r >= n:
                r = _getrandbits(k)
            start_attempt(now, rs, ties[r], False)
            return
        # Every server is alive in cohort-supported configs, so the
        # scalar health-wait branch is unreachable here.
        candidates = servers
        if detector is not None and (
            detector.ejected_count or detector.drained_count
        ):
            routable = [s for s in servers if detector.routable(s.index)]
            if routable:
                candidates = routable
                probe_index = detector.take_probe()
                if probe_index is not None:
                    rs[2] += 1
                    start_attempt(now, rs, servers[probe_index], False)
                    return
            else:
                det_report.quarantine_bypasses += 1
        if breakers is not None:
            candidates = [
                s for s in candidates if breakers[s.index].allow(now)
            ]
            if not candidates:
                overload_report.breaker_rejections += 1
                fast_fail(now, rs)
                return
        if queue_cap is not None:
            candidates = [
                s for s in candidates if s.outstanding < queue_cap
            ]
            if not candidates:
                overload_report.rejected_queue_full += 1
                fast_fail(now, rs)
                return
        rs[2] += 1
        start_attempt(now, rs, pick(candidates), False)

    # --- arrival process ----------------------------------------------
    base_pms = schedule.base_rate_rps / 1000.0
    surge_pms = (schedule.base_rate_rps * schedule.surge_multiplier) / 1000.0
    surge_start = schedule.surge_start_ms
    surge_end = schedule.surge_end_ms

    # --- initial schedule (same order as the scalar path) -------------
    if detector is not None:
        eval_interval = csim._failslow_detection.eval_interval_ms
        push(eval_interval, _K_TICK, None, None)
    if t0 > 0:
        push_at(0.0, t0, _K_BEGIN, None, None)
    push_at(0.0, t1, _K_END, None, None)
    rate0 = surge_pms if surge_start <= 0.0 < surge_end else base_pms
    push(-_log(1.0 - _random()) / rate0, _K_ARRIVE, None, None)

    # Loop-local aliases for the hottest names: closure-captured
    # variables compile to cell lookups inside the loop; a plain local
    # bound to the same object is one opcode cheaper per access.
    pop = heappop
    _push = heappush
    heap_l = heap
    servers_l = servers
    completed_bl = completed_b
    goodput_bl = goodput_b
    completed_get = completed_b.get
    goodput_get = goodput_b.get
    offered_get = offered_b.get
    have_brk = breakers is not None
    have_cap = queue_cap is not None
    # The fused path implies no detector, so the per-attempt timeout is
    # the static policy timeout and the deadline gate needs one compare.
    fused_timeout = retry_timeout if retry is not None else 0.0
    deadline_gate = deadline_shedding and retry is not None
    # ``st.done`` is set only by the _K_END handler, which breaks out of
    # the loop, so inside the loop it is identically False (the scalar
    # engine's ``state["done"]`` guards are equally dead: Simulation.stop
    # halts the event loop before any later event runs).  The hot
    # branches below therefore omit those guards; the shared closures
    # keep them for the finalization path.  ``offered``/``good`` counters
    # live in plain locals for the same reason and are stored back after
    # the loop.
    measuring = st.measuring
    offered_n = 0
    good_n = 0
    now = 0.0
    while heap:
        now, key, a, b = pop(heap)
        kind = key & 15
        if kind == _K_CPU:
            server = a
            att = b
            n = att[14]
            q = server.cpu_q
            if not q:
                # No waiters: the n coalesced slice completions reduce
                # to one busy-count update (nothing can interleave --
                # their seqs were consecutive).
                server.cpu_busy -= n
                att[11] -= n
            else:
                while True:
                    server.cpu_busy -= 1
                    if q:
                        # Resource.finish grants the next waiter
                        # (running its gate loop) before the
                        # completion callback.
                        while True:
                            svc, natt = q.popleft()
                            if cpu_gate(now, natt):
                                server.cpu_busy += 1
                                seq += 16
                                _push(
                                    heap_l,
                                    (now + svc, seq, server, natt),
                                )
                                break
                            if not q:
                                break
                    att[11] -= 1
                    n -= 1
                    if not n:
                        break
            if att[11] == 0:
                # after_cpu: enter the memory stage.
                if server.mem_busy < mem_k:
                    server.mem_busy += 1
                    seq += 16
                    _push(heap_l, (now + att[7], seq + _K_MEM, server, att))
                else:
                    server.mem_q.append(att)
        elif kind == _K_MEM:
            server = a
            att = b
            q = server.mem_q
            if q:
                natt = q.popleft()
                seq += 16
                _push(heap_l, (now + natt[7], seq + _K_MEM, server, natt))
            else:
                server.mem_busy -= 1
            # after_mem: the disk and NIC stations, advanced as Lindley
            # carries (exact -- see the module docstring).
            free = server.disk_free
            dep = (now if now > free else free) + att[8]
            server.disk_free = dep
            free = server.nic_free
            dep = (dep if dep > free else free) + att[9]
            server.nic_free = dep
            seq += 16
            _push(heap_l, (dep, seq + _K_DONE, server, att))
        elif kind == _K_DONE:
            # done(): the attempt completed (NIC transfer finished).
            server = a
            att = b
            server.outstanding -= 1
            att[3] = True
            if not att[2]:
                rs = att[0]
                if have_brk:
                    b_ = server.brk
                    if b_.state is _CLOSED and not att[4]:
                        # record_success fast path: append to the window.
                        b_._outcomes.append(True)
                    else:
                        b_.record_success(now, att[4])
                if det_buf is not None:
                    det_buf[server.index].append(now - att[5])
                if rs[3]:
                    report.wasted_completions += 1
                else:
                    rs[3] = True
                    server.completions += 1
                    # complete(served=True) + _record_response, inlined.
                    start = rs[1]
                    response = now - start
                    i = int(now / bucket)
                    completed_bl[i] = completed_get(i, 0.0) + 1.0
                    good = qos is None or response <= qos_limit
                    if good:
                        goodput_bl[i] = goodput_get(i, 0.0) + 1.0
                    if start >= t0:
                        responses_append(response)
                        if qos_samples is not None:
                            qos_samples.append(response)
                        if good:
                            good_n += 1
                        if has_metrics:
                            resp_buf.append(response)
                            m_outcomes[0] += 1
        elif kind == _K_ARRIVE:
            # schedule_arrival() then issue(), inlined.
            rate = surge_pms if surge_start <= now < surge_end else base_pms
            seq += 16
            _push(
                heap_l,
                (now + -_log(1.0 - _random()) / rate, seq + _K_ARRIVE,
                 None, None),
            )
            rs = [fast_sample(rng), now, 0, False, False]
            i = int(now / bucket)
            offered_b[i] = offered_get(i, 0.0) + 1.0
            if measuring:
                offered_n += 1
            if retry_budget is not None:
                # note_request(), inlined: min(burst, tokens + ratio).
                tok = retry_budget._tokens + rb_ratio
                retry_budget._tokens = (
                    rb_burst if rb_burst < tok else tok
                )
            if admission is not None:
                # admit(), inlined: token bucket, then the adaptive
                # shed draw -- taken only when shed probability > 0,
                # exactly like AdmissionController.admit.
                if adm_bucket is not None and not adm_bucket.try_acquire(
                    now
                ):
                    overload_report.rate_limited += 1
                    continue  # abandon(): open-loop no-op
                ewma = admission._delay_ewma
                if ewma > adm_threshold:
                    ramp = (ewma - adm_threshold) / adm_threshold
                    p = adm_max_shed if adm_max_shed < ramp else ramp
                    if p > 0.0 and _random() < p:
                        overload_report.shed_admission += 1
                        continue
            if not fused:
                dispatch_request(now, rs)
                continue
            # --- fused dispatch_request + start_attempt, fully
            # inlined for the first attempt of each request (the
            # hot path: ~1.07 attempts per request on the surge
            # bench).  Keep in sync with the closures above, which
            # still serve retries, hedges, probes, detector
            # configs, and round-robin dispatch. ---------------
            least = -1
            ties = None
            blocked = True
            for s in servers_l:
                if have_brk:
                    b_ = s.brk
                    if b_.state is not _CLOSED and not b_.allow(now):
                        continue
                blocked = False
                o = s.outstanding
                if have_cap and o >= queue_cap:
                    continue
                if ties is None or o < least:
                    least = o
                    ties = [s]
                elif o == least:
                    ties.append(s)
            if ties is None:
                if blocked:
                    overload_report.breaker_rejections += 1
                else:
                    overload_report.rejected_queue_full += 1
                fast_fail(now, rs)
                continue
            n = len(ties)
            k = n.bit_length()
            r = _getrandbits(k)
            while r >= n:
                r = _getrandbits(k)
            server = ties[r]
            rs[2] = 1
            d = rs[0]
            s_out = server.outstanding
            if brownout is not None and s_out >= brownout_enter:
                c_cpu = d[0] * brownout_factor
                c_mem = d[1] * brownout_factor
                c_ios = d[2] * brownout_factor
                c_bytes = d[3] * brownout_factor
                c_net = d[4] * brownout_factor
                overload_report.brownout_requests += 1
            else:
                c_cpu = d[0]
                c_mem = d[1]
                c_ios = d[2]
                c_bytes = d[3]
                c_net = d[4]
            probe = (
                have_brk
                and server.brk.state is _HALF_OPEN
                and server.brk.note_dispatch(now)
            )
            server.outstanding = s_out + 1
            cpu_ms = c_cpu * cpu_factor
            mem_ms = c_mem / mem_div
            disk_ms = (
                c_ios * (disk_write_lat if d[5] else disk_read_lat)
                + c_bytes / disk_denom
            )
            net_ms = nic_overhead + c_net / nic_denom
            if drift is not None:
                lane = drift_cpu[server.index]
                if lane is not None:
                    cpu_ms *= drift_scale(lane, now)
                lane = drift_flash[server.index]
                if lane is not None:
                    disk_ms *= drift_scale(lane, now)
                lane = drift_nic[server.index]
                if lane is not None:
                    net_ms *= drift_scale(lane, now)
            par = d[6]
            slices = par if par < cpu_k else cpu_k
            floor_ = cpu_ms + mem_ms + disk_ms + net_ms
            att = [
                rs, server, False, False, probe, now, fused_timeout,
                mem_ms, disk_ms, net_ms, floor_, slices, False, False, 1,
            ]
            svc = cpu_ms if slices == 1 else cpu_ms / slices
            if server.cpu_busy + slices <= cpu_k:
                att[12] = True
                if admission is not None:
                    admission._delay_ewma *= adm_1ma
                if deadline_gate and floor_ > fused_timeout:
                    att[2] = True
                    overload_report.shed_deadline += 1
                    server.outstanding -= 1
                    if have_brk:
                        server.brk.record_failure(now, probe)
                    retry_or_give_up(now, rs)
                else:
                    att[13] = True
                    att[14] = slices
                    server.cpu_busy += slices
                    seq += 16
                    _push(
                        heap_l, (now + svc, seq, server, att)
                    )
            else:
                for _ in range(slices):
                    if server.cpu_busy < cpu_k:
                        if cpu_gate(now, att):
                            server.cpu_busy += 1
                            seq += 16
                            _push(
                                heap_l,
                                (now + svc, seq, server, att),
                            )
                    else:
                        server.cpu_q.append((svc, att))
            if retry is not None:
                seq += 16
                _push(
                    heap_l,
                    (now + fused_timeout, seq + _K_TIMEOUT, att, None),
                )
                if hedge_after is not None:
                    seq += 16
                    _push(
                        heap_l,
                        (now + hedge_after, seq + _K_HEDGE, att, None),
                    )
        elif kind == _K_TIMEOUT:
            att = a
            # att[3] first: nearly every timeout is stale (the attempt
            # already completed), and that read short-circuits the rest.
            if not (att[3] or att[2] or att[0][3]):
                rs = att[0]
                att[2] = True
                report.timeouts += 1
                if det_buf is not None:
                    # A timeout is a floor on the true latency.
                    det_buf[att[1].index].append(att[6])
                if have_brk:
                    att[1].brk.record_failure(now, att[4])
                retry_or_give_up(now, rs)
        elif kind == _K_HEDGE:
            att = a
            rs = att[0]
            if not (
                rs[3] or att[3] or att[2] or rs[4]
            ):
                server = att[1]
                others = [
                    s for s in servers if s is not server and allowed(now, s)
                ] or [s for s in servers if allowed(now, s)]
                if not others:
                    report.hedges_dropped += 1
                else:
                    rs[4] = True
                    rs[2] += 1
                    report.hedges += 1
                    target = pick(others)
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
                    start_attempt(now, rs, target, True)
        elif kind == _K_BACKOFF:
            dispatch_request(now, a)
        elif kind == _K_TICK:
            if not st.done:
                flush_detector()
                for change in detector.evaluate(now):
                    if change.reason == "readmitted" and breakers is not None:
                        breakers[change.server].reset(now)
                push(now + eval_interval, _K_TICK, None, None)
        elif kind == _K_BEGIN:
            measuring = True
            st.measuring = True
        else:  # _K_END
            st.done = True
            break

    st.offered += offered_n
    st.good += good_n
    if not st.done:
        raise RuntimeError("cluster simulation ended before measurement")

    # --- finalization (mirrors the scalar path) -----------------------
    failslow_report: Optional[FailSlowReport] = None
    if detector is not None:
        flush_detector()
        failslow_report = detector.finalize(now)
    if csim._failslow is not None:
        if failslow_report is None:
            failslow_report = FailSlowReport()
        failslow_report.drifting_servers = csim._failslow.drifting_servers
    window_s = max(t1 - t0, 1e-9) / 1000.0
    throughput = len(responses) / window_s
    if metrics is not None:
        if resp_buf:
            metrics.histogram("cluster.response_ms").record_many(resp_buf)
        if m_outcomes[0]:
            metrics.counter("cluster.requests", outcome="served").inc(
                m_outcomes[0]
            )
        if m_outcomes[1]:
            metrics.counter("cluster.requests", outcome="gave_up").inc(
                m_outcomes[1]
            )
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
            cache = getattr(disk_models[server.index], "cache", None)
            if cache is not None:  # pragma: no cover - excluded by support
                cache.export_metrics(metrics, server=server.index)
    attach_report = retry is not None or policy is not None
    return ClusterResult(
        servers=nservers,
        throughput_rps=throughput,
        mean_response_ms=(
            sum(responses) / len(responses) if responses else 0.0
        ),
        qos_percentile_ms=(
            qos.percentile_ms() if qos and qos.count else 0.0
        ),
        qos_met=qos.satisfied() if qos else True,
        per_server_rps=throughput / nservers,
        server_completions=[s.completions for s in servers],
        qos_violation_rate=qos.violation_rate() if qos else 0.0,
        availability=1.0,
        fault_report=report if attach_report else None,
        offered_rps=st.offered / window_s,
        goodput_rps=st.good / window_s,
        p99_ms=(
            qos.percentile_ms(0.99) if qos and qos.count else 0.0
        ),
        overload_report=overload_report,
        failslow_report=failslow_report,
        recovery_report=None,
    )
