"""Reference oracle: multi-server FCFS resources on :class:`Simulation`.

This is ``repro.simulator.resources`` as it stood when the scalar
cluster engine became a test oracle; the reference engines under
``tests/`` queue their stages on it.  The rest of this docstring is the
original module's.

Multi-server FCFS resources for the server simulator.

Each server resource (CPU core pool, memory channels, disk, NIC) is a
:class:`Resource`: ``servers`` identical service stations fed by one FCFS
queue.  Jobs are (service-time, completion-callback) pairs; the resource
tracks busy time and completions for utilization reporting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from tests.simulator.engine import Simulation


@dataclass
class ResourceStats:
    """Aggregate counters for one resource."""

    busy_time_ms: float = 0.0
    completions: int = 0
    peak_queue: int = 0
    #: Jobs cancelled by their ``on_start`` gate before any service.
    cancelled: int = 0


class Resource:
    """``servers`` parallel stations behind one FCFS queue."""

    def __init__(self, sim: Simulation, name: str, servers: int):
        if servers <= 0:
            raise ValueError("server count must be positive")
        self._sim = sim
        self.name = name
        self.servers = servers
        self._busy = 0
        self._queue: Deque[
            Tuple[float, Callable[[], None], Optional[Callable[[], bool]]]
        ] = deque()
        self.stats = ResourceStats()

    def acquire(
        self,
        service_ms: float,
        done: Callable[[], None],
        on_start: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Request ``service_ms`` of service; ``done`` fires on completion.

        ``on_start``, if given, is called at the instant a station would
        begin serving the job (after any queueing).  Returning ``False``
        cancels the job without consuming service -- the station serves
        the next queued job instead and ``done`` never fires.  This is
        the hook deadline-based load shedding uses to drop stale work at
        dequeue rather than serving it uselessly.
        """
        if service_ms < 0:
            raise ValueError("service time must be >= 0")
        if self._busy < self.servers:
            self._start(service_ms, done, on_start)
        else:
            self._queue.append((service_ms, done, on_start))
            if len(self._queue) > self.stats.peak_queue:
                self.stats.peak_queue = len(self._queue)

    def _start(
        self,
        service_ms: float,
        done: Callable[[], None],
        on_start: Optional[Callable[[], bool]] = None,
    ) -> None:
        while on_start is not None and not on_start():
            # Cancelled at the head of the queue: shed it and pull the
            # next waiting job into the free station instead.
            self.stats.cancelled += 1
            if not self._queue:
                return
            service_ms, done, on_start = self._queue.popleft()
        self._busy += 1
        self.stats.busy_time_ms += service_ms

        def finish() -> None:
            self._busy -= 1
            if self._queue:
                self._start(*self._queue.popleft())
            self.stats.completions += 1
            done()

        self._sim.schedule(service_ms, finish)
