"""Ytube: rich media serving (paper Table 1, row 3).

Models the paper's heavily modified SPECweb2005 Support workload driven
with YouTube edge-traffic characteristics (after Gill et al.): video
popularity follows a Zipf distribution, file and download sizes follow the
heavy-tailed distributions observed at the edge, and the QoS requirement
is extended to model streaming behaviour.

The key serving dynamics:

- Streams are *paced* at the video bitrate, so a serving connection lives
  for tens of seconds regardless of server speed.  We model this as a
  large per-request think time (the pacing interval) with a fixed
  connection population -- which makes peak RPS nearly platform-
  independent until a platform's CPU can no longer sustain the per-stream
  work, exactly the paper's observed behaviour (every system from srvr2
  to emb1 lands within ~10% of srvr1; emb2 collapses).
- Popular videos live in the page cache; only the Zipf tail reaches disk.
- Many views are partial (viewers abandon), shrinking transferred bytes.
"""

from __future__ import annotations

import random
from math import exp, log
from typing import Sequence

from repro.workloads._calibrate import calibrated_draw
from repro.workloads.base import (
    NV_MAGICCONST,
    DemandDraw,
    MetricKind,
    PopulationPolicy,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)
from repro.workloads.qos import QosSpec
from repro.workloads.zipf import ZipfSampler

#: Calibrated mean per-stream demand (see DESIGN.md).
MEAN_DEMAND = ResourceDemand(
    cpu_ms_ref=45.0,
    mem_ms_ref=12.0,
    disk_ios=3.0,
    disk_bytes=350_000.0,
    net_bytes=1_500_000.0,
)

#: Streaming QoS: startup latency must stay interactive.
QOS = QosSpec(limit_ms=2000.0, percentile=0.95)

#: Mean stream pacing interval: a connection occupies its slot this long.
THINK_TIME_MS = 15_000.0

#: Concurrent connection budget (limited by per-connection memory state,
#: which is identical across the 4 GB systems).
DEFAULT_POPULATION = 300

#: Streaming code: low cache sensitivity, mild in-order penalty
#: (sequential buffer copies, not pointer chasing).
CACHE_SENSITIVITY = 0.02
INORDER_IPC = 0.8
#: Streaming copies overlap well; modest stall share.
STALL_FRACTION = 0.20

#: Video catalog model.
CATALOG_SIZE = 10_000
ZIPF_ALPHA = 0.8
#: Hottest videos that fit in the page cache (served without disk I/O).
CACHED_VIDEOS = 400


class _StreamModel:
    """Structural (pre-calibration) stream model."""

    def __init__(self) -> None:
        # ``ZipfSampler.sample`` bisects the popularity CDF, so a video's
        # rank is below CACHED_VIDEOS exactly when its uniform is at most
        # the CDF at the last cached rank: the cached head's mass.
        self._cached_mass = ZipfSampler(CATALOG_SIZE, ZIPF_ALPHA).head_mass(
            CACHED_VIDEOS
        )

    def draw(self, factors: Sequence[float]) -> DemandDraw:
        """One stream's demand draw, each component scaled by ``factors``.

        The ``random.Random`` calls are inlined as in websearch's draw:
        the same uniforms, in the same order, give bitwise the values of
        ``ZipfSampler.sample``'s cached-or-not, ``lognormvariate``
        (CPython's Kinderman-Monahan loop) and ``expovariate``.
        """
        cached_mass = self._cached_mass
        f_cpu, f_mem, f_ios, f_dbytes, f_net = factors
        nv = NV_MAGICCONST
        # expovariate's rate: dividing by it, as expovariate does, keeps
        # its floats (multiplying by 0.45 would not).
        watch_rate = 1.0 / 0.45
        _exp = exp
        _log = log

        def draw(rng: random.Random) -> tuple:
            r = rng.random
            cached = r() <= cached_mass
            # Heavy-tailed video size (lognormal; most videos a few MB).
            while True:  # lognormvariate(0.0, 0.8)
                u1 = r()
                u2 = 1.0 - r()
                z = nv * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            size = _exp(z * 0.8)
            # Partial views: fraction of the video actually transferred.
            watched = 0.25 + -_log(1.0 - r()) / watch_rate  # expovariate
            if watched > 1.0:
                watched = 1.0
            transferred = size * watched
            if cached:
                ios = dbytes = 0.0
                kind = "stream-cached"
            else:
                # Chunked reads from disk for the cold tail.
                ios = 1.0 + 3.0 * transferred
                dbytes = transferred
                kind = "stream-disk"
            # Per-stream CPU: connection handling + buffer copies scale
            # with bytes moved.
            while True:  # lognormvariate(0.0, 0.3)
                u1 = r()
                u2 = 1.0 - r()
                z = nv * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            cpu = (0.3 + transferred) * _exp(z * 0.3)
            return (
                cpu * f_cpu,
                transferred * f_mem,
                ios * f_ios,
                dbytes * f_dbytes,
                transferred * f_net,
                False,
                1,
                kind,
            )

        return draw


def make_ytube() -> Workload:
    """Build the ytube benchmark with calibrated mean demands."""
    profile = WorkloadProfile(
        name="ytube",
        description=(
            "Modified SPECweb2005 Support workload with YouTube traffic "
            "characteristics (Gill et al. edge traces); Apache2/Tomcat6 "
            "with Rock httpd; Zipf video popularity, streaming QoS."
        ),
        emphasizes="the use of rich media",
        metric_kind=MetricKind.RPS_STREAM,
        mean_demand=MEAN_DEMAND,
        population=PopulationPolicy(fixed=DEFAULT_POPULATION),
        qos=QOS,
        think_time_ms=THINK_TIME_MS,
        cache_sensitivity=CACHE_SENSITIVITY,
        inorder_ipc_factor=INORDER_IPC,
        stall_fraction=STALL_FRACTION,
        max_population=DEFAULT_POPULATION,
    )
    return Workload(profile, draw=calibrated_draw(_StreamModel().draw, MEAN_DEMAND))
