"""Per-request tracer with deterministic head-based sampling.

The :class:`Tracer` is the object the simulators accept: it decides per
request id whether to record a trace (head-based sampling, so the whole
span tree either exists or doesn't), hands out :class:`~repro.obs.span.Trace`
recorders, and collects finished traces for analysis and export.

Two properties matter for the reproduction pipeline:

- **determinism** -- the sampling decision is a pure hash of
  ``(request_id, seed)``; no RNG state is consumed, so a traced run
  produces bit-identical simulation results to an untraced one, and two
  runs with the same seed produce byte-identical span logs;
- **bounded overhead** -- with ``sample_rate=0.0`` the per-request cost
  is one attribute load and one comparison, and the instrumented hot
  paths guard every further touch behind ``trace is not None``, so the
  zero-sampling path stays within its 1.05x cost budget (see
  ``benchmarks/test_budgets.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs.span import Span, SpanKind, Trace

_MASK64 = (1 << 64) - 1

#: Ignore queue gaps shorter than this (float noise), ms.
_GAP_EPS_MS = 1e-9


def _hash01(request_id: int, seed: int) -> float:
    """SplitMix64-style hash of (request_id, seed) into [0, 1)."""
    x = (request_id * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / float(1 << 64)


def record_stage(
    trace: Trace,
    parent: Optional[Span],
    cursor_ms: float,
    now_ms: float,
    kind: str,
    service_ms: float,
    name: Optional[str] = None,
) -> Span:
    """Record one completed service stage, retroactively.

    The simulators' FCFS resources serve contiguously once started, so
    at the stage-completion callback the service interval is exactly
    ``[now - service, now]`` -- no hot-path hook at service start is
    needed.  ``cursor_ms`` is where the previous stage ended; any gap up
    to the service start was time spent waiting in the resource's queue
    and is recorded as a ``queue`` span.  Returns the stage span; the
    caller advances its cursor to ``now_ms``.
    """
    start = now_ms - service_ms
    if start < cursor_ms:
        start = cursor_ms
    if start - cursor_ms > _GAP_EPS_MS:
        Trace.finish(
            trace.start(SpanKind.QUEUE, cursor_ms, parent=parent, name="queue"),
            start,
        )
    span = trace.start(kind, start, parent=parent, name=name)
    span.end_ms = now_ms
    return span


def record_stage_parts(
    trace: Trace,
    parent: Optional[Span],
    cursor_ms: float,
    now_ms: float,
    parts: Sequence[Tuple[str, str, float]],
    total_ms: float,
) -> None:
    """Like :func:`record_stage` for a stage made of typed pieces.

    ``parts`` are ``(span kind, label, ms)`` tuples (a disk model's
    ``service_components``) served back to back inside the stage's
    contiguous service interval, e.g. a flash hit followed by nothing,
    or a miss's backing-disk read.
    """
    start = now_ms - total_ms
    if start < cursor_ms:
        start = cursor_ms
    if start - cursor_ms > _GAP_EPS_MS:
        Trace.finish(
            trace.start(SpanKind.QUEUE, cursor_ms, parent=parent, name="queue"),
            start,
        )
    at = start
    for kind, label, ms in parts:
        if ms <= 0.0:
            continue
        span = trace.start(kind, at, parent=parent, name=label)
        span.end_ms = at + ms
        at += ms


def close_gave_up(trace: Trace, now_ms: float) -> None:
    """Close a request's trace after it exhausted its retries.

    A request can reach give-up with no critical spans at all: every
    timed-out attempt overlapped a then-live hedge, so no timeout wait
    was ever charged.  The elapsed time was still all spent on failed
    attempts, so the stretch no critical span covers is charged to
    ``retry`` (a ``gave-up-wait`` span) rather than falling into
    ``other``.
    """
    root = trace.root
    covered = root.start_ms
    for span in trace.spans:
        if (
            span.critical
            and span.parent_id == root.span_id
            and span.end_ms is not None
        ):
            covered = max(covered, span.end_ms)
    if now_ms - covered > _GAP_EPS_MS:
        Trace.finish(
            trace.start(SpanKind.RETRY, covered, name="gave-up-wait"), now_ms
        )
    trace.close(now_ms, status="gave_up")


class Tracer:
    """Samples requests and collects their span trees.

    ``sample_rate`` is the head-based sampling probability; ``seed``
    decorrelates the sampled subset from the simulation seed without
    touching any RNG stream.  Finished (and, after :meth:`finalize`,
    truncated) traces accumulate in :attr:`traces` in request-id issue
    order.
    """

    def __init__(self, sample_rate: float = 1.0, seed: int = 0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        self.seed = seed
        self.traces: List[Trace] = []
        #: Requests that consulted the sampler (traced or not).
        self.requests_seen = 0

    def sampled(self, request_id: int) -> bool:
        """Deterministic head-based sampling decision for one request."""
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return _hash01(request_id, self.seed) < rate

    def begin(
        self,
        request_id: int,
        now_ms: float,
        name: str = "request",
        kind: str = SpanKind.REQUEST,
    ) -> Optional[Trace]:
        """Start a trace for ``request_id`` if it is sampled, else None."""
        self.requests_seen += 1
        if not self.sampled(request_id):
            return None
        trace = Trace(request_id)
        trace.start(kind, now_ms, name=name)
        self.traces.append(trace)
        return trace

    def finalize(self, now_ms: float) -> None:
        """Close every still-open trace/span at the end of a run.

        In-flight requests at simulation stop (and attempts stranded on
        a crashed server) leave open spans; they are closed at ``now_ms``
        and the trace is marked ``truncated`` so attribution skips it.
        """
        for trace in self.traces:
            open_spans = [s for s in trace.spans if s.end_ms is None]
            if trace.status is None or open_spans:
                for span in open_spans:
                    span.end_ms = now_ms
                    span.annotate(truncated=True)
                if trace.status is None:
                    trace.close(now_ms, status="truncated")
                else:
                    trace.status = "truncated"

    def completed_traces(self) -> List[Trace]:
        """Traces that closed normally (attribution's input)."""
        return [
            t for t in self.traces if t.complete and t.status != "truncated"
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(rate={self.sample_rate}, seed={self.seed}, "
            f"traces={len(self.traces)})"
        )
