"""Mapreduce: web as a platform (paper Table 1, row 4).

Models the paper's Hadoop v0.14 benchmark with 4 worker threads per CPU
core: a cluster node running offline batch jobs consisting of map and
reduce tasks over key/value pairs in a distributed file system.  Two
applications are studied:

- ``mapred-wc``: word count over a large corpus (5 GB) -- CPU work per
  input byte plus sequential HDFS reads.
- ``mapred-wr``: distributed file write populating the file system with
  randomly generated words -- write-bandwidth-bound with substantial CPU
  for word generation and serialization, plus replication traffic on the
  network.

Performance is measured as job execution time: ``total_work_units``
(HDFS-block-sized task units) divided by the simulated task throughput.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.workloads._calibrate import calibrated_draw
from repro.workloads.base import (
    DemandDraw,
    MetricKind,
    PopulationPolicy,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)

#: The paper's Hadoop setting: 4 worker threads per CPU core.
THREADS_PER_CORE = 4

#: Calibrated mean per-task demand for word count (see DESIGN.md).
WC_MEAN_DEMAND = ResourceDemand(
    cpu_ms_ref=75.0,
    mem_ms_ref=13.0,
    disk_ios=1.0,
    disk_bytes=3_900_000.0,
    net_bytes=260_000.0,
)
#: 5 GB corpus in ~4 MB task units.
WC_WORK_UNITS = 1280

#: Calibrated mean per-task demand for distributed write.
WR_MEAN_DEMAND = ResourceDemand(
    cpu_ms_ref=325.0,
    mem_ms_ref=20.0,
    disk_ios=6.5,
    disk_bytes=14_300_000.0,
    net_bytes=650_000.0,
    disk_write=True,
)
WR_WORK_UNITS = 512

#: Fraction of tasks that are reduce/shuffle tasks (heavier on network).
REDUCE_FRACTION = 0.2

#: JVM bytecode with tight count loops: mild cache sensitivity; in-order
#: penalty between the branchy and streaming extremes.
WC_CACHE_SENSITIVITY = 0.05
WC_INORDER_IPC = 0.5
WC_STALL_FRACTION = 0.15
WR_CACHE_SENSITIVITY = 0.03
WR_INORDER_IPC = 0.6
WR_STALL_FRACTION = 0.10


class _TaskModel:
    """Structural (pre-calibration) task model shared by wc and wr."""

    def __init__(self, write: bool, reduce_net_factor: float):
        self._write = write
        self._reduce_net_factor = reduce_net_factor

    def draw(self, factors: Sequence[float]) -> DemandDraw:
        """One task's demand draw, each component scaled by ``factors``."""
        write = self._write
        reduce_net_factor = self._reduce_net_factor
        f_cpu, f_mem, f_ios, f_dbytes, f_net = factors

        def draw(rng: random.Random) -> tuple:
            # Task input sizes are near-uniform HDFS blocks with small jitter.
            size = 0.85 + 0.3 * rng.random()
            is_reduce = rng.random() < REDUCE_FRACTION
            net_factor = reduce_net_factor if is_reduce else 1.0
            cpu = size * rng.lognormvariate(0.0, 0.25)
            return (
                cpu * f_cpu,
                cpu * f_mem,
                size * (0.5 + rng.random()) * f_ios,
                size * f_dbytes,
                size * net_factor * f_net,
                write,
                1,
                "reduce" if is_reduce else "map",
            )

        return draw


def _make_mapred(
    name: str,
    mean: ResourceDemand,
    work_units: int,
    cache_sensitivity: float,
    inorder_ipc: float,
    stall_fraction: float,
    description: str,
) -> Workload:
    profile = WorkloadProfile(
        name=name,
        description=description,
        emphasizes="web as a platform",
        metric_kind=MetricKind.EXECUTION_TIME,
        mean_demand=mean,
        population=PopulationPolicy(per_core=THREADS_PER_CORE),
        qos=None,
        think_time_ms=0.0,
        cache_sensitivity=cache_sensitivity,
        inorder_ipc_factor=inorder_ipc,
        stall_fraction=stall_fraction,
        total_work_units=work_units,
    )
    model = _TaskModel(write=mean.disk_write, reduce_net_factor=4.0)
    return Workload(profile, draw=calibrated_draw(model.draw, mean))


def make_mapred_wc() -> Workload:
    """Word count over a 5 GB corpus (Hadoop v0.14, 4 threads per core)."""
    return _make_mapred(
        "mapred-wc",
        WC_MEAN_DEMAND,
        WC_WORK_UNITS,
        WC_CACHE_SENSITIVITY,
        WC_INORDER_IPC,
        WC_STALL_FRACTION,
        "Hadoop v0.14 word count over a 5GB corpus; 4 threads per CPU, "
        "1.5GB Java heap.",
    )


def make_mapred_wr() -> Workload:
    """Distributed file write populating HDFS with random words."""
    return _make_mapred(
        "mapred-wr",
        WR_MEAN_DEMAND,
        WR_WORK_UNITS,
        WR_CACHE_SENSITIVITY,
        WR_INORDER_IPC,
        WR_STALL_FRACTION,
        "Hadoop v0.14 distributed file write of randomly-generated words; "
        "4 threads per CPU, 1.5GB Java heap.",
    )
