"""Cell-partitioned serving tiers: one balancer per enclosure group.

:class:`ShardedClusterSimulator` models the modular-datacenter layout in
which every rack (enclosure group) fronts its own load balancer.  The
cluster is partitioned along its ``FailureDomain``/enclosure boundaries
into *cells* that share no simulated resources, so each cell is an
independent :class:`~repro.cluster.balancer.ClusterSimulator` run on its
own clock.  The decomposition is FIXED by the scenario (cell count and
per-cell seeds never depend on the worker count): ``shards=N`` only
chooses how many OS processes the cells are spread over, which is why
sharded runs are bit-stable with respect to shard count -- the per-cell
results are identical streams folded in cell order, digest-asserted
serial vs ``shards=N`` in tests.

Synchronization happens only at the balancer boundary: offered load is
split across cells when the run starts and per-cell telemetry folds
back through :func:`repro.perf.parallel.merge_telemetry` when it ends.
Each cell runs whichever serving-tier engine its configuration selects
(:meth:`ClusterSimulator.run`: cohort when eligible, scalar otherwise),
so cells inherit the cohort-vs-scalar bit-identity of the monolithic
simulator.  EXT-10-style surge and EXT-12-style fail-slow scenarios
shard with scripted faults remapped into cell-local indices, and
per-cell payloads stream through :func:`repro.perf.parallel.pmap_iter`
so RSS stays bounded at any shard count.

:func:`derive_seed` is the decomposition key: a splitmix64 mix of the
scenario seed and the cell (or rack/segment) index, shared with the
scenario compiler's per-rack and per-segment seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.perf.parallel import default_jobs, merge_telemetry, pmap_iter

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Deterministic per-cell/per-stream seed, independent of shard
    count (the decomposition key of the whole module)."""
    value = _splitmix64(seed & _MASK64)
    for part in parts:
        value = _splitmix64(value ^ _splitmix64(part & _MASK64))
    return value


@dataclass(frozen=True)
class _ClusterCellSpec:
    """Picklable recipe for one cell's ClusterSimulator (workloads hold
    closures, so the *factory* travels, not the instance)."""

    cell: int
    first_server: int
    servers: int
    workload_factory: object
    platform: object
    clients_per_server: int
    dispatch: object
    seed: int
    warmup_requests: int
    measure_requests: int
    enclosure_size: int
    arrivals: object
    warmup_ms: float
    measure_ms: float
    retry: object
    overload: object
    failslow: object
    failslow_detection: object
    failures: object
    recoveries: object


def _run_cluster_cell(spec: _ClusterCellSpec):
    """Module-level cell worker: build and run one cell's cluster."""
    from repro.cluster.balancer import ClusterSimulator
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    simulator = ClusterSimulator(
        spec.platform,
        spec.workload_factory(),
        servers=spec.servers,
        clients_per_server=spec.clients_per_server,
        dispatch=spec.dispatch,
        seed=spec.seed,
        warmup_requests=spec.warmup_requests,
        measure_requests=spec.measure_requests,
        enclosure_size=spec.enclosure_size,
        arrivals=spec.arrivals,
        warmup_ms=spec.warmup_ms,
        measure_ms=spec.measure_ms,
        retry=spec.retry,
        overload=spec.overload,
        failslow=spec.failslow,
        failslow_detection=spec.failslow_detection,
        failures=spec.failures,
        recoveries=spec.recoveries,
        metrics=metrics,
    )
    return simulator.run(), metrics


@dataclass
class ShardedClusterResult:
    """Per-cell :class:`ClusterResult` payloads plus merged telemetry."""

    cells: List[object]
    servers: int
    shards: int
    offered_rps: float
    throughput_rps: float
    goodput_rps: float
    mean_response_ms: float
    p99_ms: float
    metrics: object = field(repr=False, default=None)

    def digest(self) -> str:
        """SHA-256 over the ordered per-cell stream digests: identical
        for every shard count by construction, asserted in tests/CI."""
        hasher = hashlib.sha256()
        for cell_result in self.cells:
            hasher.update(cell_result.stream_digest().encode())
        return hasher.hexdigest()


class ShardedClusterSimulator:
    """A :class:`~repro.cluster.balancer.ClusterSimulator` partitioned
    along FailureDomain (enclosure) boundaries into independent cells.

    **Shard boundary rules.**  Cells are contiguous groups of whole
    enclosures (``servers`` must divide into ``cells`` groups of a
    multiple of ``enclosure_size``), because the enclosure is the unit
    that shares fate (fans/PSUs) and the balancer's ``FailureDomain``.
    Scripted ``failures``/``recoveries`` and fail-slow injections are
    remapped into cell-local indices.  Cluster-coupling features are
    rejected: ``remote_memory`` (one blade link shared by ALL servers)
    and stochastic ``faults`` (shared-blade blast radius) cannot be
    partitioned without changing semantics.  Dispatch and overload
    protection operate per cell -- the modular-DC model where each rack
    fronts its own balancer; a sharded run is therefore its *own*
    system, compared against itself across shard counts, not against
    the monolithic balancer.

    **Conservative windows.**  Cells share no simulated state, so each
    cell's DES is one maximal conservative window: no event in a cell
    can observe another cell, and synchronization happens only at the
    balancer boundary -- offered load is split when the run starts
    (open-loop rates scale by the cell's server share) and per-cell
    telemetry folds back losslessly when it ends.

    The decomposition is fixed by (scenario, ``cells``): ``shards``
    only chooses process count, so results are bit-stable with respect
    to it (``digest()`` equality, asserted for 1/2/4 shards).
    """

    def __init__(
        self,
        platform,
        workload_factory,
        servers: int,
        clients_per_server: int = 1,
        *,
        cells: Optional[int] = None,
        enclosure_size: Optional[int] = None,
        dispatch=None,
        seed: int = 1,
        warmup_requests: int = 500,
        measure_requests: int = 4000,
        arrivals=None,
        warmup_ms: float = 2000.0,
        measure_ms: float = 20_000.0,
        retry=None,
        overload=None,
        failslow=None,
        failslow_detection=None,
        failures: Optional[Dict[int, float]] = None,
        recoveries: Optional[Dict[int, float]] = None,
        remote_memory=None,
        faults=None,
    ):
        from repro.cluster.balancer import DEFAULT_ENCLOSURE_SIZE, Dispatch

        if remote_memory is not None:
            raise ValueError(
                "remote_memory couples every server through one blade link; "
                "a sharded run cannot partition it -- use ClusterSimulator"
            )
        if faults is not None:
            raise ValueError(
                "stochastic FaultProfile injection draws shared-component "
                "faults across the whole cluster; use scripted failures/"
                "failslow (cell-local) or ClusterSimulator"
            )
        if not callable(workload_factory):
            raise TypeError(
                "workload_factory must be a zero-argument callable (workload "
                "objects hold closures and cannot cross process boundaries)"
            )
        if enclosure_size is None:
            enclosure_size = DEFAULT_ENCLOSURE_SIZE
        if servers < 1 or servers % enclosure_size:
            raise ValueError(
                f"servers ({servers}) must be a positive multiple of the "
                f"enclosure size ({enclosure_size})"
            )
        enclosures = servers // enclosure_size
        if cells is None:
            cells = enclosures
        if cells < 1 or enclosures % cells:
            raise ValueError(
                f"cells ({cells}) must evenly divide the {enclosures} "
                "enclosures (shard boundaries follow FailureDomains)"
            )
        self._platform = platform
        self._workload_factory = workload_factory
        self._servers = servers
        self._cells = cells
        self._cell_servers = servers // cells
        self._enclosure_size = enclosure_size
        self._clients_per_server = clients_per_server
        self._dispatch = Dispatch.LEAST_OUTSTANDING if dispatch is None else dispatch
        self._seed = seed
        self._warmup_requests = warmup_requests
        self._measure_requests = measure_requests
        self._arrivals = arrivals
        self._warmup_ms = warmup_ms
        self._measure_ms = measure_ms
        self._retry = retry
        self._overload = overload
        self._failslow = failslow
        self._failslow_detection = failslow_detection
        self._failures = dict(failures or {})
        self._recoveries = dict(recoveries or {})
        for label, schedule in (("failure", self._failures), ("recovery", self._recoveries)):
            for index in schedule:
                if not 0 <= index < servers:
                    raise ValueError(f"scripted {label} for unknown server {index}")

    @property
    def cells(self) -> int:
        return self._cells

    def _cell_spec(self, cell: int) -> _ClusterCellSpec:
        first = cell * self._cell_servers
        last = first + self._cell_servers
        arrivals = self._arrivals
        if arrivals is not None:
            arrivals = replace(
                arrivals,
                base_rate_rps=arrivals.base_rate_rps
                * (self._cell_servers / self._servers),
            )
        failslow = self._failslow
        if failslow is not None:
            local = [
                replace(injection, server=injection.server - first)
                for injection in failslow.injections
                if first <= injection.server < last
            ]
            failslow = replace(failslow, injections=tuple(local)) if local else None
        failures = {
            index - first: at
            for index, at in self._failures.items()
            if first <= index < last
        }
        recoveries = {
            index - first: at
            for index, at in self._recoveries.items()
            if first <= index < last
        }
        return _ClusterCellSpec(
            cell=cell,
            first_server=first,
            servers=self._cell_servers,
            workload_factory=self._workload_factory,
            platform=self._platform,
            clients_per_server=self._clients_per_server,
            dispatch=self._dispatch,
            seed=derive_seed(self._seed, cell),
            warmup_requests=self._warmup_requests,
            measure_requests=self._measure_requests,
            enclosure_size=self._enclosure_size,
            arrivals=arrivals,
            warmup_ms=self._warmup_ms,
            measure_ms=self._measure_ms,
            retry=self._retry,
            overload=self._overload,
            failslow=failslow,
            failslow_detection=self._failslow_detection,
            failures=failures or None,
            recoveries=recoveries or None,
        )

    def run(self, shards: int = 1) -> ShardedClusterResult:
        """Run all cells across ``shards`` processes (0 = one per core),
        streaming per-cell payloads through :func:`pmap_iter` and
        folding telemetry in cell order."""
        if shards == 0:
            shards = default_jobs()
        if shards < 1:
            raise ValueError("shards must be >= 1 (or 0 for one per core)")
        specs = [self._cell_spec(cell) for cell in range(self._cells)]
        cells: List[object] = []
        merged = None
        for result, metrics in pmap_iter(
            _run_cluster_cell, specs, jobs=min(shards, len(specs))
        ):
            cells.append(result)
            merged = merge_telemetry([merged, metrics])
        response = (
            merged.histogram("cluster.response_ms") if merged is not None else None
        )
        return ShardedClusterResult(
            cells=cells,
            servers=self._servers,
            shards=shards,
            offered_rps=sum(cell.offered_rps for cell in cells),
            throughput_rps=sum(cell.throughput_rps for cell in cells),
            goodput_rps=sum(cell.goodput_rps for cell in cells),
            mean_response_ms=response.mean_ms if response is not None else 0.0,
            p99_ms=(
                response.percentile_ms(0.99, default=0.0)
                if response is not None
                else 0.0
            ),
            metrics=merged,
        )
