"""Websearch: unstructured data processing (paper Table 1, row 1).

Models the paper's Nutch-0.9/Tomcat/Apache benchmark: a 20 GB dataset with
a 1.3 GB index of 1.3 million documents, 25% of index terms cached in
memory.  Query keywords follow a Zipf distribution of indexed-word
frequency (after Xie and O'Hallaron) and the keyword count per query
follows observed real-world patterns.  QoS requires >95% of queries to
complete within 0.5 seconds.

Structure of one query:

1. Draw the keyword count (1-4 keywords, skewed toward 1-2).
2. For each keyword, draw a term rank from the Zipf sampler.  Popular
   terms have longer posting lists (more CPU and memory work) but are more
   likely to be among the 25% of cached index terms (no disk I/O).
3. CPU/memory demand accumulates per keyword; disk demand accumulates per
   *uncached* keyword; the response page adds network bytes.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import exp, log, sqrt
from typing import List, Sequence, Tuple

from repro.workloads._calibrate import calibrated_draw
from repro.workloads.base import (
    DemandDraw,
    MetricKind,
    PopulationPolicy,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)
from repro.workloads.qos import QosSpec
from repro.workloads.zipf import ZipfSampler

#: Calibrated mean per-query demand (see DESIGN.md, performance calibration).
MEAN_DEMAND = ResourceDemand(
    cpu_ms_ref=40.0,
    mem_ms_ref=30.0,
    disk_ios=1.5,
    disk_bytes=300_000.0,
    net_bytes=100_000.0,
)

#: Keyword-count distribution: (count, probability).  Real query logs are
#: dominated by one- and two-keyword queries.
KEYWORD_COUNT_DIST: List[Tuple[int, float]] = [(1, 0.35), (2, 0.35), (3, 0.20), (4, 0.10)]

#: Index model: distinct indexed terms and popularity skew.
INDEX_TERMS = 100_000
ZIPF_ALPHA = 0.9
#: Fraction of index terms cached in memory (paper: 25%).
CACHED_TERM_FRACTION = 0.25

#: Paper QoS: >95% of queries take < 0.5 seconds.
QOS = QosSpec(limit_ms=500.0, percentile=0.95)

#: Mean client think time between queries.
THINK_TIME_MS = 1000.0

#: Starting client population for the adaptive driver.
DEFAULT_POPULATION = 96

#: Cache-size sensitivity and in-order IPC for search code (branchy,
#: pointer-chasing inverted-index traversal).
CACHE_SENSITIVITY = 0.10
INORDER_IPC = 0.45
#: Pointer-chasing index traversal stalls on DRAM latency ~30% of the time.
STALL_FRACTION = 0.30

#: Buckets of the jump table over the Zipf CDF: a power of two, so the
#: bucket of a uniform ``u`` is exactly ``int(u * 4096.0)``.
_BUCKETS = 4096

#: Kinderman-Monahan constant of CPython's ``random.normalvariate``, whose
#: rejection loop the query draw inlines: ``lognormvariate(0.0, s)`` is
#: ``exp(z * s)`` of the loop's ``z``.
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)


class _QueryModel:
    """Structural (pre-calibration) query model.

    Holds the index as lookup tables, built once per benchmark build;
    :meth:`draw` binds them to a set of calibration factors.
    """

    def __init__(self) -> None:
        zipf = ZipfSampler(INDEX_TERMS, ZIPF_ALPHA)
        self._cdf = zipf._cdf
        self._top_rank = zipf.n - 1
        self._cached_terms = int(CACHED_TERM_FRACTION * INDEX_TERMS)
        # Posting-list length shrinks with rank: popular terms cost more
        # CPU/memory to merge but are more likely cached.
        self._posting_weights = [
            1.0 / ((rank + 1) ** 0.35) for rank in range(zipf.n)
        ]
        # Jump table over the uniform draw: bucket j brackets the bisect
        # of any u in [j/B, (j+1)/B), shrinking the search from the full
        # 100k CDF to a handful of entries.  The bounded bisect_left
        # returns the unbounded one's index, so the ranks are unchanged.
        self._bucket_lo = [
            bisect_left(self._cdf, j / _BUCKETS) for j in range(_BUCKETS)
        ]
        self._bucket_hi = [
            bisect_left(self._cdf, (j + 1) / _BUCKETS) for j in range(_BUCKETS)
        ]
        # discrete_sample's scan over the keyword-count weights: the same
        # total and the same left-to-right cumulative edges.
        weights = [p for _, p in KEYWORD_COUNT_DIST]
        self._kw_total = sum(weights)
        self._kw_edges: List[float] = []
        edge = 0.0
        for weight in weights:
            edge += weight
            self._kw_edges.append(edge)

    def draw(self, factors: Sequence[float]) -> DemandDraw:
        """The query's demand draw, each component scaled by ``factors``.

        The ``random.Random`` calls are inlined: the same uniforms, in the
        same order, give bitwise the values of ``discrete_sample``,
        ``ZipfSampler.sample``, ``lognormvariate`` (CPython's
        Kinderman-Monahan loop) and ``expovariate``.
        """
        cdf = self._cdf
        top_rank = self._top_rank
        cached_terms = self._cached_terms
        pw_table = self._posting_weights
        lo = self._bucket_lo
        hi = self._bucket_hi
        kw_total = self._kw_total
        edge1, edge2, edge3 = self._kw_edges[:3]
        kinds = [f"query-{k}kw" for k in range(len(KEYWORD_COUNT_DIST) + 1)]
        f_cpu, f_mem, f_ios, f_dbytes, f_net = factors
        nv = _NV_MAGICCONST
        _bisect = bisect_left
        _exp = exp
        _log = log

        def draw(rng: random.Random) -> tuple:
            r = rng.random
            u = r() * kw_total
            if u < edge1:
                keywords = 1
            elif u < edge2:
                keywords = 2
            elif u < edge3:
                keywords = 3
            else:
                keywords = 4
            cpu = 0.0
            mem = 0.0
            ios = 0.0
            dbytes = 0.0
            for _ in range(keywords):
                u = r()
                j = int(u * 4096.0)
                rank = _bisect(cdf, u, lo[j], hi[j])
                if rank > top_rank:
                    rank = top_rank
                posting_weight = pw_table[rank]
                while True:  # lognormvariate(0.0, 0.35)
                    u1 = r()
                    u2 = 1.0 - r()
                    z = nv * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -_log(u2):
                        break
                work = posting_weight * _exp(z * 0.35)
                cpu += work
                mem += work
                if rank >= cached_terms:
                    # Uncached index term: posting list fetched from disk.
                    ios += 1.0 + r()
                    while True:  # lognormvariate(0.0, 0.3)
                        u1 = r()
                        u2 = 1.0 - r()
                        z = nv * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -_log(u2):
                            break
                    dbytes += posting_weight * _exp(z * 0.3)
            # Result scoring/rendering plus the response page.
            cpu += 0.25 * -_log(1.0 - r())
            net = 0.5 + 0.5 * -_log(1.0 - r())
            return (
                cpu * f_cpu,
                mem * f_mem,
                ios * f_ios,
                dbytes * f_dbytes,
                net * f_net,
                False,
                keywords,
                kinds[keywords],
            )

        return draw


def make_websearch() -> Workload:
    """Build the websearch benchmark with calibrated mean demands."""
    profile = WorkloadProfile(
        name="websearch",
        description=(
            "Open source Nutch-0.9, Tomcat 6 with clustering, and Apache2. "
            "1.3GB index of 1.3 million documents, 25% of index terms "
            "cached in memory. 2GB Java heap."
        ),
        emphasizes="the role of unstructured data",
        metric_kind=MetricKind.RPS_QOS,
        mean_demand=MEAN_DEMAND,
        population=PopulationPolicy(fixed=DEFAULT_POPULATION),
        qos=QOS,
        think_time_ms=THINK_TIME_MS,
        cache_sensitivity=CACHE_SENSITIVITY,
        inorder_ipc_factor=INORDER_IPC,
        stall_fraction=STALL_FRACTION,
    )
    return Workload(profile, draw=calibrated_draw(_QueryModel().draw, MEAN_DEMAND))
