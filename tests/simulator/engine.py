"""Reference oracle: the discrete-event simulation core.

This is ``repro.simulator.engine`` as it stood when the scalar cluster
engine (``tests/cluster/reference_balancer.py``), its last caller in
``repro``, became a test oracle.  It schedules the reference engines
under ``tests/`` (that one, ``reference_server_sim`` and
``reference_openloop``); its round-off clamp constants stay in
:mod:`repro.cluster.engine`, beside the cohort engine's
``clamp_phase_delay`` that mirrors :meth:`Simulation._clamped`.  The
rest of this docstring is the original module's.

Discrete-event simulation core.

A minimal, fast event loop: callbacks scheduled at absolute simulated
times (milliseconds), executed in time order with FIFO tie-breaking.

The implementation is tuned for the per-event overhead that dominates
DES-backed experiments (``PERF.md`` in ``docs/performance.md``):

- heap entries are plain ``(time, seq, callback)`` tuples so ordering
  uses CPython's C tuple comparison (``seq`` is unique, so callbacks are
  never compared);
- the dispatch loop binds ``heappop`` and the heap list to locals and is
  split into with/without-``until_ms`` variants so the common path pays
  no per-event ``is not None`` test;
- timers can be *lazily cancelled*: :meth:`cancel` marks the entry dead
  in O(1) and the loop skips it when popped; once dead entries outnumber
  half the heap, one in-place sweep-and-heapify reclaims them, so a
  request path that schedules a timeout per attempt (the cluster
  balancer) does not drag thousands of dead timers through every heap
  operation;
- the dispatch loop unpacks each entry once (``time, seq, cb = pop()``)
  instead of indexing it three times, and checks ``stop()`` *after* the
  callback: ``run()`` resets ``_stopped`` on entry and only a callback
  can set it, so the pre-callback check was a branch that could never
  fire on the first iteration and paid per event forever after.

Tiny *negative* delays produced by float round-off (an absolute target
computed as ``t - now`` landing one ulp in the past) are clamped to zero
instead of raising; genuinely past targets still raise ``ValueError``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Set, Tuple

from repro.cluster.engine import PAST_EPSILON_MS, PAST_RELATIVE_EPSILON

Callback = Callable[[], None]


class Simulation:
    """An event-driven simulation clock and scheduler."""

    __slots__ = ("_heap", "_now", "_seq", "_stopped", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callback]] = []
        self._now = 0.0
        self._seq = 0
        self._stopped = False
        #: Sequence numbers of scheduled-but-cancelled timers (lazy).
        self._cancelled: Set[int] = set()

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def _clamped(self, delay_ms: float) -> float:
        """Clamp round-off negatives to 0; raise for the genuinely past."""
        if delay_ms >= -(PAST_EPSILON_MS + PAST_RELATIVE_EPSILON * self._now):
            return 0.0
        raise ValueError(f"cannot schedule in the past (delay {delay_ms})")

    def schedule(self, delay_ms: float, callback: Callback, _push=heappush) -> None:
        """Run ``callback`` after ``delay_ms`` of simulated time."""
        if delay_ms < 0.0:
            delay_ms = self._clamped(delay_ms)
        self._seq = seq = self._seq + 1
        _push(self._heap, (self._now + delay_ms, seq, callback))

    def schedule_at(self, time_ms: float, callback: Callback) -> None:
        """Run ``callback`` at absolute simulated time ``time_ms``."""
        self.schedule(time_ms - self._now, callback)

    def schedule_timer(self, delay_ms: float, callback: Callback, _push=heappush) -> int:
        """Like :meth:`schedule`, returning a handle for :meth:`cancel`."""
        if delay_ms < 0.0:
            delay_ms = self._clamped(delay_ms)
        self._seq = seq = self._seq + 1
        _push(self._heap, (self._now + delay_ms, seq, callback))
        return seq

    def cancel(self, timer: int) -> None:
        """Cancel a timer returned by :meth:`schedule_timer`.

        O(1): the entry is only marked dead; the dispatch loop discards
        it when popped.  When dead entries outnumber half the queue, one
        in-place sweep rebuilds the heap without them, keeping heap
        operations logarithmic in the number of *live* events.  Calling
        this for a timer that already fired is a harmless no-op (the
        stale mark is dropped at the next sweep).
        """
        cancelled = self._cancelled
        cancelled.add(timer)
        heap = self._heap
        if len(cancelled) * 2 > len(heap):
            heap[:] = [entry for entry in heap if entry[1] not in cancelled]
            heapify(heap)
            cancelled.clear()

    def stop(self) -> None:
        """Stop the event loop after the current callback returns."""
        self._stopped = True

    def run(self, until_ms: Optional[float] = None) -> None:
        """Process events until the queue drains, ``stop()`` is called, or
        the clock would pass ``until_ms``.

        ``_stopped`` is reset on entry and only a callback can set it,
        so the loop checks it *after* dispatching -- semantically
        identical to a pre-pop check, one branch cheaper per event.
        """
        self._stopped = False
        heap = self._heap
        pop = heappop
        cancelled = self._cancelled
        if until_ms is None:
            while heap:
                time, seq, callback = pop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self._now = time
                callback()
                if self._stopped:
                    return
        else:
            while heap:
                time = heap[0][0]
                if time > until_ms:
                    self._now = until_ms
                    return
                _, seq, callback = pop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self._now = time
                callback()
                if self._stopped:
                    return
