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
from typing import Callable, List, Tuple

from repro.workloads._calibrate import calibrated_sampler, calibration_factors
from repro.workloads.base import (
    MetricKind,
    PopulationPolicy,
    Request,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)
from repro.workloads.qos import QosSpec
from repro.workloads.zipf import ZipfSampler, discrete_sample

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


class _QueryModel:
    """Structural (pre-calibration) query sampler."""

    def __init__(self) -> None:
        self._zipf = ZipfSampler(INDEX_TERMS, ZIPF_ALPHA)
        self._cached_terms = int(CACHED_TERM_FRACTION * INDEX_TERMS)
        self._kw_weights = [p for _, p in KEYWORD_COUNT_DIST]
        self._kw_counts = [k for k, _ in KEYWORD_COUNT_DIST]

    def __call__(self, rng: random.Random) -> Request:
        keywords = self._kw_counts[discrete_sample(self._kw_weights, rng)]
        cpu = 0.0
        mem = 0.0
        ios = 0.0
        dbytes = 0.0
        for _ in range(keywords):
            rank = self._zipf.sample(rng)
            # Posting-list length shrinks with rank; popular terms cost
            # more CPU/memory to merge but are more likely cached.
            posting_weight = 1.0 / ((rank + 1) ** 0.35)
            work = posting_weight * rng.lognormvariate(0.0, 0.35)
            cpu += work
            mem += work
            if rank >= self._cached_terms:
                # Uncached index term: posting list fetched from disk.
                ios += 1.0 + rng.random()
                dbytes += posting_weight * rng.lognormvariate(0.0, 0.3)
        # Result scoring/rendering plus the response page.
        cpu += 0.25 * rng.expovariate(1.0)
        net = 0.5 + 0.5 * rng.expovariate(1.0)
        return Request(
            demand=ResourceDemand(
                cpu_ms_ref=cpu,
                mem_ms_ref=mem,
                disk_ios=ios,
                disk_bytes=dbytes,
                net_bytes=net,
                cpu_parallelism=keywords,
            ),
            kind=f"query-{keywords}kw",
        )


#: Kinderman-Monahan constant from CPython's ``random.normalvariate``.
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)

def _fast_demand_sampler(
    model: _QueryModel, factors: List[float]
) -> Callable[[random.Random], tuple]:
    """Tuple-returning query demand path for the cohort cluster engine.

    Replicates :meth:`_QueryModel.__call__` plus the calibration wrapper
    with every ``random.Random`` method inlined -- the same uniforms, in
    the same order, producing bitwise-identical component values -- but
    returns a plain tuple instead of building Request/ResourceDemand
    objects.  The inlined ``lognormvariate`` is CPython's
    Kinderman-Monahan rejection loop verbatim (``tests/workloads``
    asserts value- and state-equality against ``random.Random``).
    """
    cdf = model._zipf._cdf
    top_rank = model._zipf.n - 1
    cached_terms = model._cached_terms
    # Posting weights by rank, paid once per build instead of per keyword
    # draw; the expression of :meth:`_QueryModel.__call__`, so bitwise-equal.
    pw_table = [1.0 / ((rank + 1) ** 0.35) for rank in range(top_rank + 1)]
    # Jump table over the uniform draw: bucket j brackets the bisect of
    # any u in [j/B, (j+1)/B), shrinking the search from the full 100k
    # CDF to a handful of entries.  The bounded bisect_left returns the
    # exact same index as the unbounded one, so sampled ranks (and the
    # RNG stream) are unchanged.
    _B = 4096
    _lo = [0] * _B
    _hi = [0] * _B
    for j in range(_B):
        _lo[j] = bisect_left(cdf, j / _B)
        _hi[j] = bisect_left(cdf, (j + 1) / _B)
    kw_weights = model._kw_weights
    kw_total = sum(kw_weights)
    acc = 0.0
    kw_edges = []
    for w in kw_weights:
        acc += w
        kw_edges.append(acc)
    edge1, edge2, edge3 = kw_edges[0], kw_edges[1], kw_edges[2]
    f_cpu, f_mem, f_ios, f_dbytes, f_net = factors
    nv = _NV_MAGICCONST
    _bisect = bisect_left
    _exp = exp
    _log = log

    def sample(rng: random.Random) -> tuple:
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
            # int(u * 4096.0) is exact (power-of-two scale), so the
            # bracketed bisect returns the unbounded bisect's index.
            j = int(u * 4096.0)
            rank = _bisect(cdf, u, _lo[j], _hi[j])
            if rank > top_rank:
                rank = top_rank
            posting_weight = pw_table[rank]
            while True:  # normalvariate(0, 1) rejection loop
                u1 = r()
                u2 = 1.0 - r()
                z = nv * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            work = posting_weight * _exp(z * 0.35)
            cpu += work
            mem += work
            if rank >= cached_terms:
                ios += 1.0 + r()
                while True:
                    u1 = r()
                    u2 = 1.0 - r()
                    z = nv * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -_log(u2):
                        break
                dbytes += posting_weight * _exp(z * 0.3)
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
        )

    return sample


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
    model = _QueryModel()
    factors = calibration_factors(model, MEAN_DEMAND)
    workload = Workload(profile, calibrated_sampler(model, MEAN_DEMAND, factors))
    workload.fast_demand = _fast_demand_sampler(model, factors)
    return workload
