"""The cohort request-lifecycle engine of the serving-tier cluster DES.

:meth:`repro.cluster.balancer.ClusterSimulator.run` runs every
configuration here.  Its oracle is the per-request callback engine kept
in ``tests/cluster/reference_balancer.py``, which models each attempt as
a chain of per-stage closures threaded through four FCFS station
objects -- a dozen closure allocations and as many dynamic dispatches
per attempt.  On the open-loop surge benchmark that loop, not the model,
was the cost: the ``cluster_surge`` bench sustained ~70k simulated-ms
per wall-second on it.

:func:`run_cohort` replaces the callback web with one flat event loop over
plain tuples ``(time, key, a, b)`` (``key`` packs the push sequence
number with the event kind in its low 4 bits) -- the *cohort* of state
needed per event rides in two plain lists instead of captured cells --
while reproducing the oracle's behaviour **bit for bit**:

- every ``random.Random`` consumer (inter-arrival and think-time draws,
  workload sampling via :attr:`~repro.workloads.base.Workload.fast_demand`,
  admission shed draws, least-outstanding tie-breaks, full-jitter
  backoff, flash-cache popularity draws) runs in exactly the oracle's
  order on the shared generator, so the uniform stream is identical;
- the CPU and memory stations replicate the oracle's FCFS grant
  algorithm exactly (free-station grant, FIFO queueing, the ``on_start``
  gate loop that cancels deadline-shed work and immediately grants the
  next waiter, grant-before-completion-callback ordering on finish);
- the blade-controller link (shared by every server and by the rebuild
  stream), disk and NIC stations -- single-server FIFO queues whose
  service time is fixed at entry -- are advanced as carry-seeded Lindley
  recurrences: ``dep = max(entry, carry) + svc`` computed when an
  attempt enters reproduces, operation for operation, the floats the
  event-at-a-time grant would compute (grant-at-entry when the station
  is free, grant at the previous departure otherwise), because a k=1
  FIFO station's departure order equals its entry order.  The carry
  must see entries in entry order, and nothing may decide between entry
  and departure whether the attempt goes on.  So at a memory completion
  the disk and NIC departures are computed together and one
  attempt-complete event returns to the heap -- unless a fault can
  strand the attempt in the disk (it must not then enter the NIC: fault
  runs push a disk departure event and enter the NIC there) or the
  attempt is traced (its stage spans are created at each departure, in
  event order: a span-only disk departure event).  The blade link is
  always its own departure event, because an attempt that skips it
  (blade down, no remote misses) can reach its disk ahead of one still
  in the link;
- service times come from the same platform formulas with loop-invariant
  factors hoisted only where IEEE semantics make the hoist bitwise-safe
  (e.g. ``cpu_ms_ref * (stall + (1 - stall) * scaling)`` -- the
  parenthesised factor never depends on the request);
- event tie-breaking matches the oracle's FIFO ``seq`` order: this loop
  schedules the surviving events at the same points, in the same order,
  as the oracle's ``schedule``/``schedule_timer`` calls, and the events
  the Lindley collapse removes (disk/NIC stage completions) carry no
  observable side effects.  Per-attempt timeouts keep their ``seq`` but
  wait in a deadline-ordered deque with only its head on the heap; a
  timeout found stale (its attempt completed or timed out, or its
  request finished) behind a firing head is dropped instead of popped,
  which is exact because staleness is permanent and a stale timeout
  does nothing.  Only a shrinking adaptive timeout, whose deadline would
  precede the deque's tail, and the hedge timers go on the heap
  directly.  A collapsed attempt-complete event, and a
  link departure queued behind another transfer, is pushed earlier (at
  entry, not grant), which could only reorder it against an unrelated
  event landing on the *identical* float timestamp in that window;
  event times here are sums of continuous variates, and the structural
  equal-time cases (same-server chains, timeout-vs-completion races)
  keep their relative order because their seq assignments keep their
  relative order.

The rest of the lifecycle follows the oracle's callbacks event for
event: a closed-loop client's think-time re-issue is a heap event and
the warm-up and measurement windows count completions; the tracer
records the same spans, ids, names and attributes at the same points
with zero RNG; fault injection runs through the simulator's own wiring
(``ClusterSimulator._inject_faults``), scheduling its fail/repair
processes on a two-method clock over this heap, so the injector draws in
the same order and each failure does the same thing to the same
per-server fields (epochs that void in-flight work, health waits, the
blade, flash, fan and PSU degraded modes).  The maintenance script and
the redundant blade group's :class:`~repro.faults.recovery.RecoveryOrchestrator`
schedule on the same clock; the orchestrator's rebuild chunks acquire
the blade link through the same carry foreground transfers advance.

``ClusterResult.stream_digest()``, span-log, metrics-snapshot and
recovery-report equality with the oracle is a hard test invariant
(``tests/cluster/test_cohort_engine.py``).

Two deliberate deviations from a naive "vectorize everything" plan, both
forced by the stream-identity contract: inter-arrival variates cannot be
bulk-drawn ahead of time because the arrival draws *interleave* with
workload/admission draws on the shared generator (and a numpy log
mapping differs from ``math.log`` in the last ulp), so arrivals use
``random.expovariate``'s own formula, ``-log(1 - random()) / rate``,
inline -- same values, same stream, one C-level ``random()`` per draw.
Likewise the CPU and memory stations stay event-driven: the CPU gate
(deadline shedding, admission EWMA) makes grant decisions that feed back
into the shared stream, and a multi-channel memory station's completion
order can overtake its entry order, so neither is a Lindley recurrence.

Latency recording is batched: detector histograms buffer per-server
attempt latencies and flush through
:meth:`~repro.simulator.telemetry.LatencyHistogram.record_many`
immediately before each detector evaluation (the evaluator reads only
bucket counts, which ``record_many`` computes exactly), the rebuild
throttle's backpressure EWMA folds its event-ordered feed when the
rebuild pump reads it, and the metrics response histogram is flushed
once at the end of the run.

When the event loop ends it clears the heap, the timeout deque and every
server's CPU and memory queue, so the work still in flight is freed by
reference counting as the run returns, not by a later gen-2 collection.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from math import log
from typing import List, Optional

from repro.cluster.overload import (
    AdmissionController,
    AdmissionVerdict,
    BreakerState,
    CircuitBreaker,
    OverloadReport,
    RetryBudget,
)
from repro.faults.failslow import DriftTable, FailSlowReport, PeerComparisonDetector
from repro.faults.injector import schedule_maintenance
from repro.faults.recovery import RecoveryOrchestrator, RecoveryReport
from repro.obs.span import SpanKind, Trace
from repro.obs.tracer import close_gave_up, record_stage, record_stage_parts
from repro.simulator.telemetry import TimeSeries
from repro.workloads.qos import QosTracker

__all__ = [
    "run_cohort", "clamp_phase_delay", "PAST_EPSILON_MS", "PAST_RELATIVE_EPSILON",
]

#: Negative delays no larger than this absolute slack -- plus a relative
#: term scaled by the current clock, since float error grows with the
#: magnitude of ``now`` -- are treated as round-off and clamped to 0.
PAST_EPSILON_MS = 1e-9
PAST_RELATIVE_EPSILON = 1e-12


def clamp_phase_delay(delay_ms: float, now_ms: float) -> float:
    """Clamp a round-off-negative delay to zero.

    Cohort window boundaries derived from absolute targets (warmup end,
    measurement end, :class:`~repro.cluster.overload.SurgeSchedule`
    phase edges) are computed as ``target - now``; float round-off can
    land that one ulp in the past.  The slack is the same absolute
    epsilon plus a relative term scaled by the clock that the oracle's
    event loop (``tests/simulator/engine.py``) applies, so a boundary
    event never raises (or, worse, silently reorders) over the last
    ulp, while a genuinely past target still fails loudly.
    """
    if delay_ms >= 0.0:
        return delay_ms
    if delay_ms >= -(PAST_EPSILON_MS + PAST_RELATIVE_EPSILON * now_ms):
        return 0.0
    raise ValueError(f"cannot schedule in the past (delay {delay_ms})")


# Per-request and per-attempt state ride in plain lists: creating a
# slotted instance costs a type call plus one STORE_ATTR per field,
# which at one request record and ~1.07 attempt records per arrival was
# a measurable slice of the hot loop.  Index layout (the ``rs`` list
# mirrors the oracle's ``_RequestState``; ``att`` mirrors ``_Attempt``
# plus the per-attempt service times the oracle keeps in closure
# cells):
#
#   rs  = [d, start, attempts, finished, hedged, trace, live]
#          0  1      2         3         4       5      6
#   att = [rs, server, void, done, probe, t0, timeout_ms, mem_ms,
#          0   1       2     3     4      5   6           7
#          disk_ms, net_ms, floor, left, decided, serve, batch, epoch,
#          8        9       10     11    12       13     14     15
#          blade_ms, nic_dep, tr]
#          16        17       18
#
# ``att[14]`` (batch) counts the CPU slice completions the attempt's
# next _K_CPU event stands for: >1 when every slice was granted at
# dispatch (they share one service time, so their finish events would
# pop back-to-back anyway and coalesce into one heap entry).
# ``rs[5]`` is the request's :class:`~repro.obs.span.Trace` (None when
# untraced) and ``rs[6]`` its attempt spans still in flight; ``att[18]``
# is None unless the attempt is traced, then
# ``[attempt span, cursor_ms, disk parts, cpu slice ms, slices,
# cpu_ms_ref, failover profile]`` (the last is the redundant group's
# degraded service profile the attempt was dispatched under, or None).
# ``att[17]`` holds a traced attempt's NIC departure between its
# disk-stage event and its completion event.


class _Srv:
    """One server's stage state.

    CPU and memory are event-driven stations (busy count + FIFO queue);
    disk and NIC are the carry floats of their Lindley recurrences (next
    free time).  The fault fields are the ones the fault wiring
    (``ClusterSimulator._inject_faults``) drives.
    """

    __slots__ = (
        "index", "outstanding", "completions",
        "cpu_busy", "cpu_q", "mem_busy", "mem_q",
        "disk_free", "nic_free", "brk", "disk_model",
        "up", "epoch", "down_components", "cpu_throttle", "blade_down",
        "draining",
    )

    def __init__(self, index: int, disk_model):
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
        #: The spec-built disk model, or None for the platform's own
        #: disk (its formula is inlined).
        self.disk_model = disk_model
        self.up = True
        #: Bumped when the server drops out of rotation; attempts carry
        #: the epoch they were dispatched under (``att[15]``).
        self.epoch = 0
        self.down_components = 0
        self.cpu_throttle = 1.0
        #: Remote reads leave the direct link path: the shared blade is
        #: down (unprotected: page from the local swap path), or a
        #: protected blade group is degraded or rebuilding (read per the
        #: group's service profile).  One flag, so the healthy path
        #: tests nothing more when redundancy is on.
        self.blade_down = False
        #: In a maintenance-drain window: stays up (in-flight work
        #: completes) but receives no new dispatches or hedges.
        self.draining = False


class _St:
    """Mutable run state shared between the loop and its helpers."""

    __slots__ = ("done", "measuring", "offered", "good", "completions", "t0", "t1")

    def __init__(self, measuring: bool, t0: float, t1: float):
        self.done = False
        self.measuring = measuring
        self.offered = 0
        self.good = 0
        #: Closed loop: completions and abandons so far (the windows
        #: count them).
        self.completions = 0
        self.t0 = t0
        self.t1 = t1


class _Clock:
    """The cohort heap seen as a scheduler: ``now`` and ``schedule``.

    The fault injector, the maintenance script and the rebuild pump
    schedule their callbacks through this; each runs as a ``_K_CALL``
    event with ``now`` set to its time.
    """

    __slots__ = ("now", "schedule")


class _Link:
    """The shared blade-controller link seen as a station: ``acquire``.

    ``acquire(service_ms, done)`` advances the same Lindley carry the
    foreground transfers advance and returns ``done`` as a ``_K_CALL``
    event at the chunk's departure, so rebuild chunks queue behind, and
    ahead of, foreground remote-memory transfers in entry order.
    """

    __slots__ = ("acquire",)


class _TeeList(list):
    """A detector's per-server latency buffer that also appends each
    latency to the rebuild throttle's event-ordered feed."""

    __slots__ = ("feed",)

    def __init__(self, feed: list):
        super().__init__()
        self.feed = feed

    def append(self, latency_ms: float) -> None:
        list.append(self, latency_ms)
        self.feed.append(latency_ms)


# Event kinds, ordered by hot-path frequency.
_K_CPU = 0
_K_MEM = 1
_K_DONE = 2
_K_ARRIVE = 3
_K_ISSUE = 4
_K_DISK = 5
_K_BLADE = 6
_K_TIMEOUT = 7
_K_HEDGE = 8
_K_BACKOFF = 9
_K_TICK = 10
_K_CALL = 11
_K_BEGIN = 12
_K_END = 13


def run_cohort(csim):
    """Run one :class:`~repro.cluster.balancer.ClusterSimulator`
    configuration and return its
    :class:`~repro.cluster.balancer.ClusterResult`.
    """
    # Deferred: the balancer imports this module to run its simulations.
    from repro.cluster.balancer import (
        HEALTH_RECHECK_MS,
        ClusterResult,
        Dispatch,
        FaultReport,
    )

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
    tracer = csim._tracer
    remote = csim._remote_memory
    spec = csim._disk_spec
    faults = csim._faults is not None
    nservers = csim._servers
    closed = schedule is None

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
        drift_remote = drift.remote
        drift_scale = DriftTable.scale
    detector: Optional[PeerComparisonDetector] = None
    if csim._failslow_detection is not None:
        detector = PeerComparisonDetector(
            csim._failslow_detection, nservers, metrics=metrics
        )
    det_report = None if detector is None else detector.report

    servers = [
        _Srv(index, spec.build() if spec is not None else None)
        for index in range(nservers)
    ]
    rr_next = 0
    report = FaultReport()
    # The shared blade-controller link: a one-station FIFO queue across
    # every server, advanced as a Lindley carry like the disk and NIC.
    blade_free = 0.0
    blade_state = {"up": True, "down_since": 0.0}

    # --- overload-protection runtime ----------------------------------
    overload_report: Optional[OverloadReport] = None
    admission: Optional[AdmissionController] = None
    retry_budget: Optional[RetryBudget] = None
    breakers: Optional[List[CircuitBreaker]] = None
    queue_cap = None
    deadline_shedding = False
    brownout = None
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
                for _ in range(nservers)
            ]
            for srv, brk in zip(servers, breakers):
                srv.brk = brk
        queue_cap = policy.queue_cap
        deadline_shedding = policy.deadline_shedding
        brownout = policy.brownout
        # Inlined TimeSeries.record targets: the three per-request series.
        completed_b = overload_report.completed._buckets
        goodput_b = overload_report.goodput._buckets
        offered_b = overload_report.offered._buckets
    if brownout is not None:
        brownout_enter = brownout.enter_outstanding
        brownout_factor = brownout.demand_factor
    round_robin = csim._dispatch is Dispatch.ROUND_ROBIN
    retry_max = retry.max_retries if retry is not None else 0
    retry_timeout = retry.timeout_ms if retry is not None else 0.0
    hedge_after = retry.hedge_after_ms if retry is not None else None

    # Protection-stack fast paths: the closed-breaker / admit / deposit
    # cases are single compares or float ops, inlined below with the
    # originals' exact arithmetic; every other transition falls through
    # to the real object methods.
    _CLOSED = BreakerState.CLOSED
    _HALF_OPEN = BreakerState.HALF_OPEN
    _ADMIT = AdmissionVerdict.ADMIT
    _RATE_LIMITED = AdmissionVerdict.RATE_LIMITED
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
    qos_limit = profile.qos.limit_ms if profile.qos is not None else 0.0
    responses: List[float] = []
    responses_append = responses.append
    # Metrics batching: responses flushed through record_many, outcome
    # counters accumulated and inc'd once.
    has_metrics = metrics is not None
    resp_buf: List[float] = []
    m_outcomes = [0, 0]  # served, gave_up

    if closed:
        # Completion-count windows: t0 and t1 are set by the warmup-th
        # and the last counted completion.
        warmup = csim._warmup
        measure_end = csim._warmup + csim._measure
        thinks = profile.think_time_ms > 0
        think_rate = 1.0 / profile.think_time_ms if thinks else 0.0
        st = _St(measuring=False, t0=0.0, t1=0.0)
    else:
        st = _St(
            measuring=csim._warmup_ms == 0.0,
            t0=csim._warmup_ms,
            t1=csim._warmup_ms + csim._measure_ms,
        )
    t0 = st.t0
    t1 = st.t1
    rid = 0

    # Which stage boundaries are heap events.  Without faults or traces
    # a memory completion advances the disk and NIC Lindley carries at
    # once and pushes one completion event.  A fault can strand an
    # attempt inside a station, and a stranded attempt must not enter
    # the next one, so fault runs decide each entry at the previous
    # stage's departure event.  A traced attempt needs an event at each
    # boundary so its spans are created in event order.  The blade link
    # is always its own event: an attempt that skips it (blade down, no
    # remote misses) can reach its disk ahead of one still in the link.
    # A zero-rate tracer never records a trace, so the run makes no
    # ``Tracer.begin`` call: it counts the requests it issues in ``rid``
    # and adds them to ``requests_seen`` once, at the end.
    traced_run = tracer is not None and tracer.sample_rate > 0.0
    staged_cpu = faults or traced_run
    staged_mem = staged_cpu or remote is not None
    # Closed-loop and traced completions take the general helpers; the
    # open-loop one is inlined in the _K_DONE handler.
    general_done = closed or traced_run
    # A lost attempt is cancelled at its CPU grant only where the oracle
    # installs a CPU gate (runs with an overload policy).
    gate_lost = faults and policy is not None
    closed_gated = closed and policy is not None

    # Heap events are 4-tuples ``(time, key, a, b)`` where ``key`` packs
    # the strictly-increasing push sequence number with the event kind in
    # the low 4 bits (``key = seq + kind``, ``seq`` advancing by 16 per
    # push, kinds < 16).  Key order equals push order at equal times --
    # exactly the 5-tuple ``(time, seq, kind, ...)`` ordering -- with one
    # less tuple element to allocate and compare per event.
    heap: list = []
    seq = 0
    # Per-attempt timeouts wait in deadline order in ``timeouts``, and
    # only its head is on the heap, under its own ``(time, key)``, with
    # a ``b`` of True.  When the head fires, the entries behind it that
    # are already stale are dropped and the next live one goes to the
    # heap.  Dropping is exact: ``att[2]``, ``att[3]`` and ``rs[3]`` only
    # ever turn True, and a stale timeout's handler does nothing.  A
    # timeout whose deadline would precede the tail (only a shrinking
    # adaptive timeout's can) goes to the heap with ``b`` None.
    timeouts = deque()

    def push(time: float, kind: int, a, b) -> None:
        nonlocal seq
        seq += 16
        heappush(heap, (time, seq + kind, a, b))

    def push_at(now: float, target: float, kind: int, a, b) -> None:
        """Schedule at an absolute target, clamping phase-edge round-off."""
        push(now + clamp_phase_delay(target - now, now), kind, a, b)

    clock = _Clock()
    clock.now = 0.0

    def schedule_call(delay_ms: float, callback) -> None:
        push(clock.now + delay_ms, _K_CALL, callback, None)

    clock.schedule = schedule_call

    def link_acquire(service_ms: float, done) -> None:
        nonlocal blade_free
        now = clock.now
        free = blade_free
        blade_free = (now if now > free else free) + service_ms
        push(blade_free, _K_CALL, done, None)

    link = _Link()
    link.acquire = link_acquire

    # --- redundancy / recovery runtime ----------------------------------
    # The redundant blades are capacity and fault-domain state behind
    # the ONE shared blade-controller link: foreground transfers and
    # rebuild chunks advance the same carry.  None of it draws RNG, and
    # a healthy group leaves every server's ``blade_down`` False, so a
    # healthy protected run serves the unprotected stream bit for bit.
    redundancy = csim._redundancy
    maintenance = csim._maintenance
    drains = maintenance is not None and bool(maintenance.windows)
    recovery: Optional[RecoveryOrchestrator] = None
    recovery_report: Optional[RecoveryReport] = None
    if redundancy is not None or drains:
        recovery_report = RecoveryReport()
    if redundancy is not None and redundancy.policy is not None:
        server_ids = [f"server-{i}" for i in range(nservers)]
        recovery = RecoveryOrchestrator(
            clock, link, redundancy.build_group(server_ids),
            redundancy.rebuild,
            page_latency_us=remote.page_latency_us,
            metrics=metrics, trace=tracer is not None,
            report=recovery_report,
        )

        def _mark_active(active: bool) -> None:
            for srv in servers:
                srv.blade_down = active

        recovery.on_active = _mark_active
        if detector is not None:
            index_of = {sid: i for i, sid in enumerate(server_ids)}

            def _impairment(server_id: str, impaired: bool) -> None:
                # Failed-over servers paying the data-loss paging
                # penalty leave the hedge-routable set.
                detector.set_drained(index_of[server_id], impaired)

            recovery.on_impairment = _impairment
    # Attempt latencies (completions, and timeouts at the timeout value)
    # go to per-server detector buffers, flushed through
    # LatencyHistogram.record_many right before every detector
    # evaluation (which reads only counts -- exact under record_many),
    # and in event order to the rebuild throttle's feed, which folds
    # them into its EWMA when the rebuild pump next reads it.
    if detector is None and recovery is None:
        lat_buf: Optional[List[list]] = None
    elif detector is None:
        lat_buf = [recovery.throttle.pending] * nservers
    elif recovery is None:
        lat_buf = [[] for _ in range(nservers)]
    else:
        lat_buf = [_TeeList(recovery.throttle.pending) for _ in range(nservers)]
    # Servers in rotation (up and not draining).  Only fault and
    # maintenance callbacks change either flag, and each runs as a
    # _K_CALL event, so the list is rebuilt after those instead of at
    # every dispatch.
    health = faults or drains
    in_rotation = list(servers)

    # --- request lifecycle helpers ------------------------------------

    def flush_detector() -> None:
        for index, buf in enumerate(lat_buf):
            if buf:
                detector.histograms[index].record_many(buf)
                del buf[:]

    def record_response(now: float, start_ms: float, served: bool) -> None:
        response = now - start_ms
        responses_append(response)
        if served and (qos is None or response <= qos_limit):
            st.good += 1
        if has_metrics:
            resp_buf.append(response)
            m_outcomes[0 if served else 1] += 1

    def client_loop(now: float) -> None:
        """A closed-loop client thinks, then issues its next request."""
        if st.done:
            return
        think = -_log(1.0 - _random()) / think_rate if thinks else 0.0
        push(now + think, _K_ISSUE, None, None)

    def complete(now: float, start_ms: float, served: bool) -> None:
        if overload_report is not None and served:
            i = int(now / bucket)
            completed_b[i] = completed_b.get(i, 0.0) + 1.0
            if qos is None or now - start_ms <= qos_limit:
                goodput_b[i] = goodput_b.get(i, 0.0) + 1.0
        if not closed:
            if not st.done and start_ms >= t0:
                record_response(now, start_ms, served)
            return
        st.completions += 1
        count = st.completions
        if count == warmup:
            st.t0 = now
            st.measuring = True
        elif count > warmup and not st.done:
            record_response(now, start_ms, served)
            if count >= measure_end:
                st.done = True
                st.t1 = now
                return
        client_loop(now)

    def abandon(now: float) -> None:
        """A request was shed or rejected: an error, not a latency."""
        if not closed:
            return
        st.completions += 1
        count = st.completions
        if count == warmup:
            st.t0 = now
            st.measuring = True
        elif count >= measure_end:
            st.done = True
            st.t1 = now
            return
        client_loop(now)

    def drop_live(rs: list, span) -> None:
        live = rs[6]
        if live and span in live:
            live.remove(span)

    def schedule_backoff(now: float, rs: list) -> None:
        backoff = retry.backoff_ms(rs[2] - 1, rng)
        trace = rs[5]
        span = None
        if trace is not None and trace.status is None and not rs[6]:
            # Not while a hedge is still live: the request is not
            # blocked on the backoff then.
            span = trace.start(SpanKind.RETRY, now, name="backoff")
        push(now + backoff, _K_BACKOFF, rs, span)

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
        trace = rs[5]
        if trace is not None and trace.status is None:
            close_gave_up(trace, now)
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
        trace = rs[5]
        if trace is not None and trace.status is None:
            trace.event(SpanKind.SHED, now, name="rejected")
            trace.close(now, status="rejected")
        abandon(now)

    def shed_deadline(now: float, att: list) -> None:
        """The CPU gate's fail-fast: the attempt provably cannot meet
        its deadline, so it is voided before any service."""
        att[2] = True
        overload_report.shed_deadline += 1
        server = att[1]
        server.outstanding -= 1
        rs = att[0]
        tr = att[18]
        if tr is not None:
            trace = rs[5]
            if trace.status is None:
                # The whole attempt so far was queueing; charge it to
                # the critical path as queue time unless a hedge is
                # still covering the request.
                aspan = tr[0]
                aspan.critical = False
                Trace.finish(aspan, now)
                aspan.annotate(shed="deadline")
                drop_live(rs, aspan)
                if not rs[6]:
                    Trace.finish(
                        trace.start(SpanKind.QUEUE, att[5], name="shed-wait"),
                        now,
                    )
                trace.event(SpanKind.SHED, now, name="deadline-shed")
        if breakers is not None:
            breakers[server.index].record_failure(now, att[4])
        retry_or_give_up(now, rs)

    def cpu_gate(now: float, att: list) -> bool:
        """The oracle's ``cpu_gate``/``slice_gate`` pair: decide once per
        attempt at the first slice to reach a core."""
        if att[12]:
            return att[13]
        att[12] = True
        if gate_lost and att[15] != att[1].epoch:
            return False
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
            tr = att[18]
            if tr is not None and att[0][5].status is None:
                att[0][5].event(
                    SpanKind.SHED, now, parent=tr[0], name="stale-shed"
                )
            return False
        if retry is not None and now - att[5] + att[10] > att[6]:
            shed_deadline(now, att)
            return False
        att[13] = True
        return True

    def start_attempt(now: float, rs: list, server: "_Srv", hedge: bool) -> None:
        nonlocal seq
        d = rs[0]
        browned = brownout is not None and server.outstanding >= brownout_enter
        if browned:
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
        tr = None
        trace = rs[5]
        if trace is not None and trace.status is None:
            aspan = trace.start(SpanKind.ATTEMPT, now, name=f"attempt{rs[2]}")
            aspan.annotate(server=server.index)
            if hedge:
                aspan.annotate(hedge=True)
            if browned:
                aspan.annotate(brownout=True)
            if rs[6] is None:
                rs[6] = []
            rs[6].append(aspan)
            tr = [aspan, now, None, 0.0, 1, c_cpu, None]

        cpu_ms = c_cpu * cpu_factor
        if faults:
            # Enclosure-fan thermal throttle (1.0 when the fan is up).
            cpu_ms *= server.cpu_throttle
        blade_ms = 0.0
        degraded_ms = 0.0
        if remote is not None:
            cpu_ms += remote.trap_cpu_ms(c_cpu)
            if not server.blade_down:
                blade_ms = remote.link_time_ms(c_cpu)
            elif recovery is None:
                # Blade down: local-memory-only mode; capacity misses
                # page in from the swap path on the server's own disk.
                degraded_ms = remote.degraded_time_ms(c_cpu)
                report.degraded_requests += 1
            else:
                # Redundant placement with a blade down (or being
                # rebuilt): reads split per the server's current service
                # profile -- direct, failed over to surviving copies
                # (amplified for parity reconstruction), or lost to the
                # swap path.
                prof = recovery.profile(server_ids[server.index])
                if prof.healthy:
                    blade_ms = remote.link_time_ms(c_cpu)
                else:
                    if tr is not None:
                        tr[6] = prof
                    blade_ms = remote.failover_time_ms(
                        c_cpu, prof.direct_fraction, prof.failover_fraction,
                        prof.amplification,
                    )
                    if prof.failover_fraction > 0.0:
                        recovery_report.failover_requests += 1
                    if prof.lost_fraction > 0.0:
                        degraded_ms = remote.residual_degraded_time_ms(
                            c_cpu, prof.lost_fraction
                        )
                        recovery_report.lossy_requests += 1
                        report.degraded_requests += 1
        if drift is not None:
            # Drift evaluated once at dispatch time (pure function of
            # simulated time; zero RNG), like the oracle.
            lane = drift_cpu[server.index]
            if lane is not None:
                cpu_ms *= drift_scale(lane, now)
            lane = drift_remote[server.index]
            if lane is not None and blade_ms > 0.0:
                blade_ms *= drift_scale(lane, now)
        mem_ms = c_mem / mem_div
        model = server.disk_model
        parts = None
        if model is None:
            disk_ms = (
                c_ios * (disk_write_lat if d[5] else disk_read_lat)
                + c_bytes / disk_denom
            )
            if tr is not None:
                parts = [("disk", "disk", disk_ms)]
        else:
            if not getattr(model, "available", True):
                report.cache_bypassed_requests += 1
            if tr is not None:
                parts = list(model.service_components(c_ios, c_bytes, d[5], rng))
                disk_ms = sum(part[2] for part in parts)
            else:
                disk_ms = model.service_ms(c_ios, c_bytes, d[5], rng)
        if drift is not None:
            lane = drift_flash[server.index]
            if lane is not None:
                # The total is scaled once; the parts are display-only.
                flash_mult = drift_scale(lane, now)
                disk_ms *= flash_mult
                if parts:
                    parts = [(k, name, ms * flash_mult) for k, name, ms in parts]
        if degraded_ms > 0.0:
            if parts is not None:
                parts.append(("disk", "degraded-swap", degraded_ms))
            disk_ms = disk_ms + degraded_ms
        net_ms = nic_overhead + c_net / nic_denom
        if drift is not None:
            lane = drift_nic[server.index]
            if lane is not None:
                net_ms *= drift_scale(lane, now)

        par = d[6]
        slices = par if par < cpu_k else cpu_k
        svc = cpu_ms if slices == 1 else cpu_ms / slices
        if tr is not None:
            tr[2] = parts
            tr[3] = svc
            tr[4] = slices
        att = [
            rs, server, False, False, probe, now, att_timeout, mem_ms,
            disk_ms, net_ms, cpu_ms + mem_ms + blade_ms + disk_ms + net_ms,
            slices, False, False, 1, server.epoch, blade_ms, 0.0, tr,
        ]
        if server.cpu_busy + slices <= cpu_k:
            # Every slice starts right now and finishes at the same
            # instant with consecutive seqs, so the group coalesces into
            # ONE heap event standing for `slices` completions (see
            # att[14]/batch; the _K_CPU handler replays them back-to-back
            # exactly as the oracle would pop them).  The gate
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
                shed_deadline(now, att)
            else:
                att[13] = True
                att[14] = slices
                server.cpu_busy += slices
                seq += 16
                heappush(heap, (now + svc, seq, server, att))  # + _K_CPU == 0
        else:
            for _ in range(slices):
                if server.cpu_busy < cpu_k:
                    # Free station: the FCFS start path -- gate, then
                    # grant.  (With a free station the queue is empty
                    # by the station's invariant, so a refused gate
                    # just drops.)
                    if cpu_gate(now, att):
                        server.cpu_busy += 1
                        seq += 16
                        heappush(heap, (now + svc, seq, server, att))
                else:
                    server.cpu_q.append((svc, att))

        if retry is None:
            return
        seq += 16
        deadline = now + att_timeout
        if timeouts and deadline < timeouts[-1][0]:
            # A shrunk adaptive timeout would break the deque's order.
            heappush(heap, (deadline, seq + _K_TIMEOUT, att, None))
        else:
            event = (deadline, seq + _K_TIMEOUT, att, True)
            if not timeouts:
                heappush(heap, event)
            timeouts.append(event)
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
        # The least-outstanding ties in candidate order, in one pass.
        least = -1
        ties = None
        for s in candidates:
            o = s.outstanding
            if ties is None or o < least:
                least = o
                ties = [s]
            elif o == least:
                ties.append(s)
        # rng.randrange(len(ties)), inlined (_randbelow_with_getrandbits).
        n = len(ties)
        k = n.bit_length()
        r = _getrandbits(k)
        while r >= n:
            r = _getrandbits(k)
        return ties[r]

    # With every server always alive, no detector, least-outstanding
    # dispatch, the platform disk, no blade and no sampled trace (the
    # open-loop overload runs), the breaker filter, queue-cap filter and
    # pick fuse into one pass, and the first attempt of each request is
    # inlined into the arrival handler.
    fused = (
        not closed and not health and detector is None and not round_robin
        and spec is None and remote is None and not traced_run
    )

    def dispatch_request(now: float, rs: list) -> None:
        if st.done or rs[3]:
            return
        if health:
            alive = in_rotation
            if not alive:
                # Health check: nobody can serve right now.  Back off
                # and re-probe; a repair or drain end will unblock us.
                report.all_down_waits += 1
                trace = rs[5]
                wait = None
                if trace is not None and trace.status is None:
                    wait = trace.start(SpanKind.RETRY, now, name="health-wait")
                push(now + HEALTH_RECHECK_MS, _K_BACKOFF, rs, wait)
                return
        else:
            alive = servers
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
        candidates = alive
        if detector is not None and (
            detector.ejected_count or detector.drained_count
        ):
            routable = [s for s in alive if detector.routable(s.index)]
            if routable:
                candidates = routable
                probe_index = detector.take_probe()
                if probe_index is not None and servers[probe_index].up:
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

    def issue(now: float) -> None:
        """A new request: sample, trace, count, admit, dispatch."""
        nonlocal rid
        rs = [fast_sample(rng), now, 0, False, False, None, None]
        if traced_run:
            rs[5] = tracer.begin(rid, now)
        rid += 1
        if overload_report is not None:
            i = int(now / bucket)
            offered_b[i] = offered_b.get(i, 0.0) + 1.0
        if st.measuring and not st.done:
            st.offered += 1
        if retry_budget is not None:
            retry_budget.note_request()
        if admission is not None:
            verdict = admission.admit(now)
            if verdict is not _ADMIT:
                if verdict is _RATE_LIMITED:
                    overload_report.rate_limited += 1
                    shed_name = "rate-limited"
                else:
                    overload_report.shed_admission += 1
                    shed_name = "admission-shed"
                trace = rs[5]
                if trace is not None:
                    trace.event(SpanKind.SHED, now, name=shed_name)
                    trace.close(now, status="shed")
                abandon(now)
                return
        dispatch_request(now, rs)

    # --- stage boundaries (staged runs) --------------------------------

    def after_cpu(now: float, server: "_Srv", att: list) -> None:
        """Every CPU slice is done: record the span, enter memory."""
        nonlocal seq
        if faults and att[15] != server.epoch:
            return
        tr = att[18]
        if tr is not None:
            trace = att[0][5]
            if trace.status is None:
                # One slice: the contiguous-service interval is exact.
                # Sliced requests report the last slice's share and
                # annotate the fan-out.
                span = record_stage(
                    trace, tr[0], tr[1], now, SpanKind.CPU, tr[3]
                )
                if tr[4] > 1:
                    span.annotate(slices=tr[4])
                tr[1] = now
        if server.mem_busy < mem_k:
            server.mem_busy += 1
            seq += 16
            heappush(heap, (now + att[7], seq + _K_MEM, server, att))
        else:
            server.mem_q.append(att)

    def after_mem(now: float, server: "_Srv", att: list) -> None:
        """Memory done: the blade link, or straight to the disk."""
        nonlocal blade_free
        if faults and att[15] != server.epoch:
            return
        tr = att[18]
        if tr is not None:
            trace = att[0][5]
            if trace.status is None:
                record_stage(trace, tr[0], tr[1], now, SpanKind.MEM, att[7])
                tr[1] = now
        blade_ms = att[16]
        if blade_ms > 0 and blade_state["up"]:
            free = blade_free
            blade_free = (now if now > free else free) + blade_ms
            push(blade_free, _K_BLADE, server, att)
        else:
            enter_disk(now, server, att)

    def enter_disk(now: float, server: "_Srv", att: list) -> None:
        """Advance the disk carry, and the NIC's where exact."""
        free = server.disk_free
        dep = (now if now > free else free) + att[8]
        server.disk_free = dep
        if faults:
            # The NIC entry waits for the disk departure event: the
            # server may go down in between.
            push(dep, _K_DISK, server, att)
            return
        free = server.nic_free
        nic_dep = (dep if dep > free else free) + att[9]
        server.nic_free = nic_dep
        if att[18] is not None:
            # Span-only event at the disk departure.
            att[17] = nic_dep
            push(dep, _K_DISK, server, att)
        else:
            push(nic_dep, _K_DONE, server, att)

    # --- initial schedule ------------------------------------------------
    # Pushed in the oracle's order (scripted blade faults, the fault
    # processes, drain windows, the detector tick, then traffic), so
    # events at equal times pop in the same order as in the oracle.
    if redundancy is not None and recovery is None:
        # Unprotected arm: the scripted storm with the degraded semantics
        # of a shared-blade fault -- every attached server pages locally
        # for the outage.
        def _unprotected_fail() -> None:
            blade_state["up"] = False
            blade_state["down_since"] = clock.now
            recovery_report.blade_failures += 1
            for srv in servers:
                srv.blade_down = True

        def _unprotected_repair() -> None:
            blade_state["up"] = True
            down = clock.now - blade_state["down_since"]
            report.blade_downtime_ms += down
            downtime = recovery_report.blade_downtime_ms
            downtime[0] = downtime.get(0, 0.0) + down
            recovery_report.blade_repairs += 1
            for srv in servers:
                srv.blade_down = False

        for fault in redundancy.blade_faults:
            push(fault.fail_ms, _K_CALL, _unprotected_fail, None)
            if fault.repair_ms is not None:
                push(fault.repair_ms, _K_CALL, _unprotected_repair, None)
    elif redundancy is not None:
        for fault in redundancy.blade_faults:
            push(fault.fail_ms, _K_CALL,
                 lambda b=fault.blade: recovery.blade_failed(b), None)
            if fault.repair_ms is not None:
                push(fault.repair_ms, _K_CALL,
                     lambda b=fault.blade: recovery.blade_repaired(b), None)
    injector = None
    if faults:
        injector = csim._inject_faults(
            clock, servers, blade_state, report, recovery
        )
    if drains:
        drain_started = {}

        def _drain(index: int) -> None:
            server = servers[index]
            if server.draining:
                return
            server.draining = True
            drain_started[index] = clock.now
            recovery_report.drains += 1
            if detector is not None:
                detector.set_drained(index, True)

        def _restore(index: int) -> None:
            server = servers[index]
            if not server.draining:
                return
            server.draining = False
            recovery_report.drain_ms += clock.now - drain_started.pop(
                index, clock.now
            )
            if detector is not None:
                detector.set_drained(index, False)

        schedule_maintenance(
            clock, maintenance.windows, _drain, _restore,
            events=injector.events if injector is not None else None,
        )
    if detector is not None:
        eval_interval = csim._failslow_detection.eval_interval_ms
        push(eval_interval, _K_TICK, None, None)
    if closed:
        for _ in range(csim._clients):
            client_loop(0.0)
    else:
        base_pms = schedule.base_rate_rps / 1000.0
        surge_pms = (schedule.base_rate_rps * schedule.surge_multiplier) / 1000.0
        surge_start = schedule.surge_start_ms
        surge_end = schedule.surge_end_ms
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
    timeouts_l = timeouts
    servers_l = servers
    if overload_report is not None:
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
    # In the open loop ``st.done`` is set only by the _K_END handler,
    # which breaks out of the loop, so inside the loop it is identically
    # False (the oracle's ``state["done"]`` guards are equally dead:
    # its event loop stops before any later event runs).  The hot
    # open-loop branches below therefore omit those guards; the shared
    # closures keep them for the closed loop, whose last counted
    # completion sets ``st.done`` inside a handler that then finishes
    # and breaks.  ``offered``/``good`` counters of the inlined
    # open-loop path live in plain locals and are stored back after the
    # loop.
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
                        # A finishing FCFS station grants the next
                        # waiter (running its gate loop) before the
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
                if staged_cpu:
                    after_cpu(now, server, att)
                # after_cpu: enter the memory stage.
                elif server.mem_busy < mem_k:
                    server.mem_busy += 1
                    seq += 16
                    _push(heap_l, (now + att[7], seq + _K_MEM, server, att))
                else:
                    server.mem_q.append(att)
            if closed_gated and st.done:
                break
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
            if staged_mem:
                after_mem(now, server, att)
                continue
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
            if faults and att[15] != server.epoch:
                # Lost: its server went down while it was in flight.
                continue
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
                if lat_buf is not None:
                    lat_buf[server.index].append(now - att[5])
                if rs[3]:
                    report.wasted_completions += 1
                else:
                    rs[3] = True
                    server.completions += 1
                    if general_done:
                        tr = att[18]
                        if tr is not None:
                            trace = rs[5]
                            if trace.status is None:
                                record_stage(
                                    trace, tr[0], tr[1], now, SpanKind.NET,
                                    att[9],
                                )
                                Trace.finish(tr[0], now)
                                drop_live(rs, tr[0])
                                trace.close(now, status="ok")
                        complete(now, rs[1], True)
                        if st.done:
                            break
                        continue
                    # complete(served=True) + record_response, inlined.
                    start = rs[1]
                    response = now - start
                    i = int(now / bucket)
                    completed_bl[i] = completed_get(i, 0.0) + 1.0
                    good = qos is None or response <= qos_limit
                    if good:
                        goodput_bl[i] = goodput_get(i, 0.0) + 1.0
                    if start >= t0:
                        responses_append(response)
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
            if not fused:
                issue(now)
                continue
            rs = [fast_sample(rng), now, 0, False, False, None, None]
            rid += 1
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
                0, 0.0, 0.0, None,
            ]
            svc = cpu_ms if slices == 1 else cpu_ms / slices
            if server.cpu_busy + slices <= cpu_k:
                att[12] = True
                if admission is not None:
                    admission._delay_ewma *= adm_1ma
                if deadline_gate and floor_ > fused_timeout:
                    shed_deadline(now, att)
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
                # A fused run's timeouts are all the static one, so
                # their deadlines reach the deque in order.
                event = (now + fused_timeout, seq + _K_TIMEOUT, att, True)
                if not timeouts_l:
                    _push(heap_l, event)
                timeouts_l.append(event)
                if hedge_after is not None:
                    seq += 16
                    _push(
                        heap_l,
                        (now + hedge_after, seq + _K_HEDGE, att, None),
                    )
        elif kind == _K_ISSUE:
            issue(now)
            if st.done:
                break
        elif kind == _K_DISK:
            # A staged attempt leaves the disk.
            server = a
            att = b
            if faults and att[15] != server.epoch:
                continue
            tr = att[18]
            if tr is not None:
                trace = att[0][5]
                if trace.status is None:
                    record_stage_parts(
                        trace, tr[0], tr[1], now, tr[2], att[8]
                    )
                    tr[1] = now
            if faults:
                free = server.nic_free
                dep = (now if now > free else free) + att[9]
                server.nic_free = dep
            else:
                dep = att[17]
            seq += 16
            _push(heap_l, (dep, seq + _K_DONE, server, att))
        elif kind == _K_BLADE:
            # An attempt leaves the blade-controller link.
            server = a
            att = b
            if faults and att[15] != server.epoch:
                continue
            tr = att[18]
            if tr is not None:
                trace = att[0][5]
                if trace.status is None:
                    span = record_stage(
                        trace, tr[0], tr[1], now, SpanKind.REMOTE_MEM,
                        att[16], name="blade-link",
                    )
                    span.annotate(**remote.span_attrs(tr[5]))
                    if recovery is not None:
                        prof = tr[6]
                        if prof is not None:
                            span.annotate(
                                failover=round(prof.failover_fraction, 4),
                                lost=round(prof.lost_fraction, 4),
                            )
                        if recovery.rebuilding:
                            # Attribution hook: this transfer shared the
                            # link with an active rebuild stream.
                            span.annotate(rebuild=True)
                    tr[1] = now
            enter_disk(now, server, att)
        elif kind == _K_TIMEOUT:
            att = a
            if b:
                # The deque's head fired: drop the stale entries behind
                # it and hand the heap the next live one.
                timeouts_l.popleft()
                while timeouts_l:
                    event = timeouts_l[0]
                    natt = event[2]
                    if not (natt[3] or natt[2] or natt[0][3]):
                        _push(heap_l, event)
                        break
                    timeouts_l.popleft()
            # att[3] first: a timeout that reaches the heap may still
            # go stale (the attempt completes) before its deadline.
            if not (att[3] or att[2] or att[0][3]):
                rs = att[0]
                att[2] = True
                report.timeouts += 1
                if lat_buf is not None:
                    # A timeout is a floor on the true latency.
                    lat_buf[att[1].index].append(att[6])
                tr = att[18]
                if tr is not None:
                    trace = rs[5]
                    if trace.status is None:
                        # The abandoned attempt's work leaves the
                        # critical path; the wait it cost becomes a
                        # retry span unless a hedge is still live.
                        aspan = tr[0]
                        aspan.critical = False
                        if aspan.end_ms is None:
                            Trace.finish(aspan, now)
                        aspan.annotate(timeout=True)
                        drop_live(rs, aspan)
                        if not rs[6]:
                            Trace.finish(
                                trace.start(
                                    SpanKind.RETRY, att[5],
                                    name="timeout-wait",
                                ),
                                now,
                            )
                if have_brk:
                    att[1].brk.record_failure(now, att[4])
                retry_or_give_up(now, rs)
                if st.done:
                    break
        elif kind == _K_HEDGE:
            att = a
            rs = att[0]
            if not (
                rs[3] or att[3] or att[2] or rs[4]
            ):
                server = att[1]
                alive = in_rotation if health else servers
                others = [
                    s for s in alive if s is not server and allowed(now, s)
                ] or [s for s in alive if allowed(now, s)]
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
                    if st.done:
                        break
        elif kind == _K_BACKOFF:
            # A backoff or health-wait re-dispatch; ``b`` is its span.
            if b is not None:
                Trace.finish(b, now)
            dispatch_request(now, a)
            if st.done:
                break
        elif kind == _K_TICK:
            if not st.done:
                flush_detector()
                for change in detector.evaluate(now):
                    if change.reason == "readmitted" and breakers is not None:
                        breakers[change.server].reset(now)
                push(now + eval_interval, _K_TICK, None, None)
        elif kind == _K_CALL:
            # A fault, maintenance, blade-script or rebuild callback.
            clock.now = now
            a()
            if health:
                in_rotation = [s for s in servers if s.up and not s.draining]
        elif kind == _K_BEGIN:
            measuring = True
            st.measuring = True
        else:  # _K_END
            st.done = True
            break

    st.offered += offered_n
    st.good += good_n
    # Release the work still in flight: a queued attempt points back at
    # its server, and the heap stays reachable from the clock's closure
    # cycle, so uncleared they would wait for a gen-2 collection.
    heap.clear()
    timeouts.clear()
    for server in servers:
        server.cpu_q.clear()
        server.mem_q.clear()
    if not st.done:
        raise RuntimeError("cluster simulation ended before measurement")

    # --- finalization ------------------------------------------------
    if not blade_state["up"]:
        down = now - blade_state["down_since"]
        report.blade_downtime_ms += down
        blade_state["down_since"] = now
        if recovery_report is not None and recovery is None:
            downtime = recovery_report.blade_downtime_ms
            downtime[0] = downtime.get(0, 0.0) + down
    if injector is not None:
        injector.tracker.finalize(now)
    if recovery is not None:
        recovery.finalize(now)
    if drains:
        # Windows still open when measurement ended.
        for since in drain_started.values():
            recovery_report.drain_ms += now - since
    if injector is not None:
        report.injected_failures = {
            ctype.value: count
            for ctype, count in injector.failure_counts.items()
        }
    if tracer is not None and not traced_run:
        tracer.requests_seen += rid
    if tracer is not None:
        tracer.finalize(now)
    failslow_report: Optional[FailSlowReport] = None
    if detector is not None:
        flush_detector()
        failslow_report = detector.finalize(now)
    if csim._failslow is not None:
        if failslow_report is None:
            failslow_report = FailSlowReport()
        failslow_report.drifting_servers = csim._failslow.drifting_servers
    if qos is not None:
        qos.record_many(responses)
    window_s = max(st.t1 - st.t0, 1e-9) / 1000.0
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
            cache = getattr(server.disk_model, "cache", None)
            if cache is not None:
                cache.export_metrics(metrics, server=server.index)
    # A recovery run only attaches the fault report when its config can
    # produce fault activity (scripted blade faults or drains): an
    # all-zero report on a healthy protected run would break its digest
    # equality with the unprotected stream.
    attach_report = (
        faults or retry is not None or policy is not None or drains
        or (redundancy is not None and bool(redundancy.blade_faults))
    )
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
        availability=(
            injector.tracker.mean_availability("rotation/")
            if injector is not None else 1.0
        ),
        fault_report=report if attach_report else None,
        offered_rps=st.offered / window_s,
        goodput_rps=st.good / window_s,
        p99_ms=(
            qos.percentile_ms(0.99) if qos and qos.count else 0.0
        ),
        overload_report=overload_report,
        failslow_report=failslow_report,
        recovery_report=recovery_report,
    )
