"""Two-level memory simulation and the remote-access slowdown model.

Reproduces the paper's section 3.4 evaluation: a trace of page accesses
runs against a local memory sized at a fraction of the workload footprint
(the paper studies 25% and 12.5%), counting misses to the second-level
(memory-blade) pool.  Miss latencies:

- PCIe 2.0 x4, 4 KB page transfer: 4 us per miss,
- critical-block-first (CBF) optimization: 0.75 us effective latency
  (the faulting access completes as soon as the needed block arrives).

The slowdown model follows the paper's trace methodology: each miss adds
one remote transfer to the execution, so

    slowdown = touches_per_ms * miss_rate * miss_latency_ms

is the fraction of extra execution time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence

import numpy as np

from repro.memsim.trace import (
    PageTraceSpec,
    WORKLOAD_TRACES,
    cached_trace,
    trace_chunks,
)
from repro.perf.kernels import MissRatioCurve, miss_ratio_curve

#: Remote page-transfer latencies (paper section 3.4).
PCIE_X4_PAGE_LATENCY_US = 4.0
CBF_PAGE_LATENCY_US = 0.75

#: Default trace length relative to the footprint (enough for the local
#: memory to reach steady state; the first pass is discarded as warmup).
_TRACE_PASSES = 8


@dataclass(frozen=True)
class MissStats:
    """Outcome of one trace simulation."""

    accesses: int
    misses: int
    local_capacity_pages: int
    #: Victim pages written back to the blade during the measurement
    #: window (bandwidth cost; off the critical path per the paper).
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def slowdown_fraction(
    miss_rate: float, touches_per_ms: float, latency_us: float
) -> float:
    """Fractional execution-time increase from remote-memory misses."""
    if not 0 <= miss_rate <= 1:
        raise ValueError("miss rate must be in [0, 1]")
    if touches_per_ms < 0 or latency_us < 0:
        raise ValueError("invalid slowdown parameters")
    return touches_per_ms * miss_rate * (latency_us / 1000.0)


class TwoLevelMemorySimulator:
    """Trace-driven simulator of the local + memory-blade hierarchy."""

    def __init__(self, spec: PageTraceSpec, local_fraction: float,
                 policy: str = "random", seed: int = 0):
        if not 0 < local_fraction <= 1:
            raise ValueError("local fraction must be in (0, 1]")
        # run() picks its replay by policy, so a name it does not know
        # must fail here rather than fall through to Random.
        if policy not in ("lru", "random"):
            raise ValueError(
                f"unknown replacement policy {policy!r}; known: 'lru', 'random'"
            )
        self.spec = spec
        self.local_fraction = local_fraction
        self.policy_name = policy
        self.seed = seed
        self.local_capacity = max(1, int(spec.footprint_pages * local_fraction))

    def run(self, trace_length: int | None = None) -> MissStats:
        """Simulate the trace; warmup (first footprint-fill pass) excluded.

        Exact LRU reads the memoized single-pass stack-distance curve;
        Random runs one flat replay loop.  Both are bit-identical to the
        per-access policy replay in ``tests/memsim/reference_twolevel.py``,
        their oracle (``tests/perf/test_kernels.py``).
        """
        length = (
            trace_length
            if trace_length is not None
            else self.spec.footprint_pages * _TRACE_PASSES
        )
        if self.policy_name == "lru":
            counts = lru_miss_curve(self.spec, length, self.seed).counts(
                self.local_capacity
            )
            return MissStats(
                accesses=counts.accesses, misses=counts.misses,
                local_capacity_pages=self.local_capacity,
                writebacks=counts.writebacks,
            )
        return self._run_random(length)

    def _run_random(self, length: int) -> MissStats:
        """Random replacement as one flat loop over the trace chunks.

        Replays the oracle's per-access ``RandomPolicy`` exactly:
        a victim slot is drawn with ``getrandbits`` the way
        ``randrange(capacity)`` draws it, from the same seeded stream.
        Compulsory first touches are counted once per chunk, off a
        per-page "touched" mask, instead of tracking a seen-set per
        access.
        """
        spec, capacity = self.spec, self.local_capacity
        warmup = min(spec.footprint_pages, length // 2)
        getrandbits = random.Random(self.seed).getrandbits
        bits = capacity.bit_length()
        slots: list = []
        index: dict = {}
        touched = np.zeros(spec.footprint_pages, dtype=bool)
        misses = misses_at_window = resident_at_window = warm_pages = 0
        start = 0
        # The first chunk is the warmup pass, so the window opens on a
        # chunk boundary.
        for chunk in trace_chunks(spec, length, self.seed, chunk=max(1, warmup)):
            if start == warmup:
                misses_at_window, resident_at_window = misses, len(slots)
                warm_pages = int(np.count_nonzero(touched))
            start += len(chunk)
            touched[chunk] = True
            # A memoryview yields the same Python ints as tolist()
            # without building a list per chunk.
            for page in memoryview(chunk):
                if page in index:
                    continue
                misses += 1
                if len(slots) < capacity:
                    index[page] = len(slots)
                    slots.append(page)
                    continue
                slot = getrandbits(bits)
                while slot >= capacity:
                    slot = getrandbits(bits)
                del index[slots[slot]]
                slots[slot] = page
                index[page] = slot
        # A page first touched in the window is touched in the whole
        # trace but not in the warmup prefix.
        first_touches = int(np.count_nonzero(touched)) - warm_pages
        window_misses = misses - misses_at_window
        # Every miss fills a free slot or evicts a victim to the blade.
        return MissStats(
            accesses=length - warmup,
            misses=window_misses - first_touches,
            local_capacity_pages=capacity,
            writebacks=window_misses - (len(slots) - resident_at_window),
        )

    def slowdown(self, latency_us: float, trace_length: int | None = None) -> float:
        """End-to-end slowdown fraction at the given miss latency."""
        stats = self.run(trace_length)
        return slowdown_fraction(
            stats.miss_rate, self.spec.touches_per_ms, latency_us
        )


@lru_cache(maxsize=16)
def lru_miss_curve(
    spec: PageTraceSpec, trace_length: int | None = None, seed: int = 0
) -> MissRatioCurve:
    """The workload's exact LRU miss-ratio curve (one pass, memoized).

    Every local-fraction sweep over the same ``(spec, length, seed)``
    reads all its capacities off this one curve instead of replaying the
    trace per fraction.  Warmup matches ``TwoLevelMemorySimulator.run``.
    """
    length = (
        trace_length
        if trace_length is not None
        else spec.footprint_pages * _TRACE_PASSES
    )
    trace = cached_trace(spec, length, seed=seed)
    warmup = min(spec.footprint_pages, length // 2)
    return miss_ratio_curve(trace, warmup=warmup)


def lru_fraction_sweep(
    spec: PageTraceSpec,
    fractions: Sequence[float],
    trace_length: int | None = None,
    seed: int = 0,
) -> Dict[float, MissStats]:
    """Exact LRU :class:`MissStats` for many local fractions at once."""
    curve = lru_miss_curve(spec, trace_length, seed)
    out: Dict[float, MissStats] = {}
    for fraction in fractions:
        if not 0 < fraction <= 1:
            raise ValueError("local fraction must be in (0, 1]")
        capacity = max(1, int(spec.footprint_pages * fraction))
        counts = curve.counts(capacity)
        out[fraction] = MissStats(
            accesses=counts.accesses, misses=counts.misses,
            local_capacity_pages=capacity, writebacks=counts.writebacks,
        )
    return out


def measured_slowdown(
    workload: str,
    local_fraction: float,
    latency_us: float = PCIE_X4_PAGE_LATENCY_US,
    trace_length: int | None = None,
) -> float:
    """Trace-measured slowdown fraction for a named workload under exact
    LRU (the lower bracket), read off the memoized miss-ratio curve.

    Raises ``KeyError`` for workloads without a trace spec -- callers
    that model unlisted benchmarks should fall back to the paper's
    assumed slowdown (see ``provisioning.ASSUMED_SLOWDOWN``).
    """
    spec = WORKLOAD_TRACES[workload]
    stats = lru_fraction_sweep(
        spec, (local_fraction,), trace_length=trace_length
    )[local_fraction]
    return slowdown_fraction(stats.miss_rate, spec.touches_per_ms, latency_us)
