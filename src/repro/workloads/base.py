"""Workload abstractions: resource demands, requests, profiles.

A workload is a statistical generator of :class:`Request` objects, each
carrying a platform-independent :class:`ResourceDemand`.  Demands are
expressed in reference units:

- ``cpu_ms_ref``: CPU milliseconds on the reference core (srvr1's 2.6 GHz
  out-of-order core with 8 MB L2),
- ``mem_ms_ref``: memory-channel milliseconds on one reference FB-DIMM
  channel,
- ``disk_ios`` / ``disk_bytes``: disk seeks and bytes transferred,
- ``net_bytes``: bytes moved over the NIC.

The simulator converts these into per-platform service times through
:class:`repro.platforms.platform.Platform`.  The mean demands of each
benchmark are calibrated so the relative-performance matrix across the six
Table 2 systems reproduces the shape of the paper's Figure 2(c); the
calibration procedure is documented in DESIGN.md.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Optional


class MetricKind(enum.Enum):
    """How a benchmark's performance is scored (Table 1 "Perf metric")."""

    #: Requests per second subject to a tail-latency QoS (websearch, webmail).
    RPS_QOS = "RPS w/ QoS"
    #: Requests per second with streaming QoS (ytube).
    RPS_STREAM = "RPS w/ streaming QoS"
    #: Inverse job execution time (mapreduce).
    EXECUTION_TIME = "execution time"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ResourceDemand:
    """Platform-independent resource demand of one request."""

    cpu_ms_ref: float = 0.0
    mem_ms_ref: float = 0.0
    disk_ios: float = 0.0
    disk_bytes: float = 0.0
    net_bytes: float = 0.0
    disk_write: bool = False
    #: Software threads available to process this request's CPU work in
    #: parallel (e.g. Nutch searches index segments concurrently).
    cpu_parallelism: int = 1

    def __post_init__(self) -> None:
        for name in ("cpu_ms_ref", "mem_ms_ref", "disk_ios", "disk_bytes", "net_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.cpu_parallelism < 1:
            raise ValueError("cpu_parallelism must be >= 1")

    def scaled(self, factor: float) -> "ResourceDemand":
        """Scale every demand component uniformly (used for scaled datasets)."""
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        return ResourceDemand(
            cpu_ms_ref=self.cpu_ms_ref * factor,
            mem_ms_ref=self.mem_ms_ref * factor,
            disk_ios=self.disk_ios * factor,
            disk_bytes=self.disk_bytes * factor,
            net_bytes=self.net_bytes * factor,
            disk_write=self.disk_write,
            cpu_parallelism=self.cpu_parallelism,
        )


@dataclass(frozen=True)
class Request:
    """One unit of work: a query, a mail action, a video serve, or a task."""

    demand: ResourceDemand
    kind: str = "request"


@dataclass(frozen=True)
class PopulationPolicy:
    """How many concurrent clients/threads drive a server.

    Exactly one of ``fixed`` and ``per_core`` is set.  Interactive
    workloads use a fixed client population (the client driver then adapts
    it -- see :mod:`repro.simulator.sweep`); mapreduce uses the paper's
    "4 threads per CPU".
    """

    fixed: Optional[int] = None
    per_core: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.fixed is None) == (self.per_core is None):
            raise ValueError("exactly one of fixed/per_core must be set")
        value = self.fixed if self.fixed is not None else self.per_core
        if value is not None and value <= 0:
            raise ValueError("population must be positive")

    def population(self, cores: int) -> int:
        """Concurrency for a server with ``cores`` hardware cores."""
        if cores <= 0:
            raise ValueError("core count must be positive")
        if self.fixed is not None:
            return self.fixed
        assert self.per_core is not None
        return self.per_core * cores


@dataclass(frozen=True)
class WorkloadProfile:
    """Static description of a benchmark (one row of Table 1)."""

    name: str
    description: str
    emphasizes: str
    metric_kind: MetricKind
    mean_demand: ResourceDemand
    population: PopulationPolicy
    qos: Optional["QosSpec"] = None
    think_time_ms: float = 0.0
    #: Exponent on L2 size in the effective-core-speed model.
    cache_sensitivity: float = 0.0
    #: IPC factor of in-order cores on this workload's code mix
    #: (branchy pointer-chasing code suffers more than streaming code).
    inorder_ipc_factor: float = 0.45
    #: Fraction of reference CPU time that is fixed-latency memory stall
    #: (does not scale with core frequency).
    stall_fraction: float = 0.0
    #: For EXECUTION_TIME workloads: total work units in the job.
    total_work_units: int = 0
    #: Hard cap on concurrent clients (e.g. ytube's per-connection memory
    #: state limits simultaneous streams identically on every 4 GB system).
    max_population: Optional[int] = None


#: A tuple demand draw: ``draw(rng)`` returns one request as
#: ``(cpu_ms_ref, mem_ms_ref, disk_ios, disk_bytes, net_bytes, disk_write,
#: cpu_parallelism, kind)`` -- the :class:`ResourceDemand` fields in
#: declaration order, then the :class:`Request` kind.
DemandDraw = Callable[[random.Random], tuple]


class Workload:
    """A benchmark: profile plus a seeded request generator.

    The generator is a tuple ``draw`` (:data:`DemandDraw`; every suite
    benchmark) or a ``sampler`` returning :class:`Request` objects
    (derived variants, scenario DAGs).  Either way the workload offers
    both faces, consuming the same random draws: :meth:`sample` builds a
    ``Request`` from the draw, and :attr:`fast_demand` flattens a sampled
    ``Request`` into the tuple.

    :func:`repro.workloads.suite.make_workload` shares one instance per
    benchmark across the process, so callers treat workloads as read-only.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        sampler: Optional[Callable[[random.Random], Request]] = None,
        draw: Optional[DemandDraw] = None,
    ):
        if (sampler is None) == (draw is None):
            raise ValueError("a workload takes exactly one of sampler and draw")
        self.profile = profile
        self._sampler = sampler if sampler is not None else _sampler_over(draw)
        #: The tuple demand path the simulation kernels read instead of
        #: :meth:`sample`: the same draws from ``rng``, in the same
        #: order, bitwise the same values, with no object construction.
        self.fast_demand: DemandDraw = (
            draw if draw is not None else _draw_over(sampler)
        )

    @property
    def name(self) -> str:
        return self.profile.name

    def sample(self, rng: random.Random) -> Request:
        """Draw one request from the workload's distribution."""
        return self._sampler(rng)

    def mean_demand(self) -> ResourceDemand:
        """Calibrated mean per-request demand (used by the analytic model)."""
        return self.profile.mean_demand

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workload({self.profile.name!r})"


def _sampler_over(draw: DemandDraw) -> Callable[[random.Random], Request]:
    """The :class:`Request` sampler of a tuple draw."""

    def sample(rng: random.Random) -> Request:
        d = draw(rng)
        return Request(ResourceDemand(*d[:7]), d[7])

    return sample


def _draw_over(sampler: Callable[[random.Random], Request]) -> DemandDraw:
    """The tuple draw of a :class:`Request` sampler."""

    def draw(rng: random.Random) -> tuple:
        request = sampler(rng)
        d = request.demand
        return (
            d.cpu_ms_ref, d.mem_ms_ref, d.disk_ios, d.disk_bytes,
            d.net_bytes, d.disk_write, d.cpu_parallelism, request.kind,
        )

    return draw


# Imported late to avoid a cycle (qos has no dependencies on base).
from repro.workloads.qos import QosSpec  # noqa: E402  (re-export for typing)
