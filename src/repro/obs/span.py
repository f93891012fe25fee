"""The span model for per-request distributed tracing.

A *trace* is one request's journey through the simulated serving stack,
from balancer admission to completion.  It is a tree of *spans*: typed,
timestamped intervals with parent/child links.  Span kinds name the
component that owned the interval (CPU, memory channel, remote-memory
blade, flash, disk, NIC), or a control-plane activity (queueing, retry
backoff, load shedding).

Spans carry a ``critical`` flag: the subset of spans marked critical
forms the *critical path* -- the chain of intervals that actually
delayed the request's completion.  Losing hedge attempts and timed-out
attempts still appear in the trace (their work is real and visible in
the Chrome-trace export) but are excluded from critical-path
attribution so tail latency is never double-counted.

Everything here is a plain accumulator: no clocks, no randomness, no
simulation imports.  The simulators drive it with their own simulated
timestamps, which keeps tracing deterministic per seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class SpanKind:
    """Well-known span types (plain strings, open set).

    ``QUEUE``/``CPU``/``MEM``/``REMOTE_MEM``/``FLASH``/``DISK``/``NET``
    are component time; ``RETRY`` covers backoff waits and abandoned
    attempt waits (timeouts); ``SHED`` marks zero-duration drop events;
    ``ATTEMPT`` groups one dispatch attempt; ``REQUEST`` is the root.
    """

    REQUEST = "request"
    ATTEMPT = "attempt"
    QUEUE = "queue"
    CPU = "cpu"
    MEM = "mem"
    REMOTE_MEM = "remote_mem"
    FLASH = "flash"
    DISK = "disk"
    NET = "net"
    RETRY = "retry"
    SHED = "shed"
    #: Background redundancy-rebuild traffic on a shared link (kept out
    #: of COMPONENTS: rebuild streams are not request time; foreground
    #: spans delayed by rebuild carry a ``rebuild=True`` attribute).
    REBUILD = "rebuild"

    #: Component kinds a critical-path table reports time against.
    COMPONENTS = (QUEUE, CPU, MEM, REMOTE_MEM, FLASH, DISK, NET, RETRY)


class Span:
    """One timed interval in a trace (slotted: thousands per run)."""

    __slots__ = (
        "span_id", "parent_id", "kind", "name", "start_ms", "end_ms",
        "critical", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        kind: str,
        name: str,
        start_ms: float,
        critical: bool = True,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.start_ms = start_ms
        #: ``None`` while open; set by :meth:`Trace.finish`.
        self.end_ms: Optional[float] = None
        self.critical = critical
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration_ms(self) -> float:
        """Span duration (0.0 while still open)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def annotate(self, **attrs: Any) -> "Span":
        """Attach key/value attributes (lazily allocates the dict)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(#{self.span_id} {self.kind}:{self.name} "
            f"[{self.start_ms:.3f}, {self.end_ms}] critical={self.critical})"
        )


class Trace:
    """One sampled request's span tree, under construction or finished.

    The first span started is the root.  Span ids are assigned
    sequentially per trace, so identical runs produce byte-identical
    serialized traces.
    """

    __slots__ = ("trace_id", "spans", "_next_id", "status")

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._next_id = 0
        #: Terminal status ("ok", "gave_up", "shed", "truncated"...);
        #: ``None`` while the request is still in flight.
        self.status: Optional[str] = None

    # -- construction -------------------------------------------------

    def start(
        self,
        kind: str,
        now_ms: float,
        parent: Optional[Span] = None,
        name: Optional[str] = None,
        critical: bool = True,
    ) -> Span:
        """Open a span at ``now_ms`` under ``parent`` (root if None)."""
        if parent is None and self.spans:
            parent_id: Optional[int] = self.spans[0].span_id
        else:
            parent_id = parent.span_id if parent is not None else None
        span = Span(
            self._next_id, parent_id, kind, name or kind, now_ms, critical
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    @staticmethod
    def finish(span: Span, now_ms: float) -> Span:
        """Close ``span`` at ``now_ms``."""
        span.end_ms = now_ms
        return span

    def event(
        self,
        kind: str,
        now_ms: float,
        parent: Optional[Span] = None,
        name: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Record a zero-duration event span (e.g. a shed decision)."""
        span = self.start(kind, now_ms, parent=parent, name=name)
        span.end_ms = now_ms
        if attrs:
            span.annotate(**attrs)
        return span

    def close(self, now_ms: float, status: str = "ok") -> None:
        """Finish the root span and mark the trace terminal.

        Any non-root span still open -- a losing hedge attempt still in
        flight, an attempt stranded on a crashed server -- is cut off at
        ``now_ms`` and demoted to non-critical: its work did not gate
        this completion, and leaving it open would wrongly mark the
        whole trace truncated.
        """
        if self.status is not None:
            return
        self.status = status
        root = self.root
        for span in self.spans:
            if span.end_ms is None:
                span.end_ms = now_ms
                if span is not root:
                    span.critical = False
                    span.annotate(cut_off=True)

    # -- inspection ---------------------------------------------------

    @property
    def root(self) -> Optional[Span]:
        return self.spans[0] if self.spans else None

    @property
    def duration_ms(self) -> float:
        """End-to-end latency of the request (root span duration)."""
        root = self.root
        return root.duration_ms if root is not None else 0.0

    @property
    def complete(self) -> bool:
        """Closed with every span finished (safe for attribution)."""
        return self.status is not None and all(
            s.end_ms is not None for s in self.spans
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(id={self.trace_id}, spans={len(self.spans)}, "
            f"status={self.status!r})"
        )
