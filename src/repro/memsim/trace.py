"""Synthetic page-access trace generation.

The paper gathers memory traces of the benchmark suite on the emb1
processor model and replays them through a simple two-level memory
simulator.  We generate statistically equivalent traces: a mixture of

- *Zipf-skewed reuse*: hot pages (heap, code, caches) drawn from a
  bounded Zipf distribution over the workload footprint, with a fixed
  random permutation so hot pages are spread across the address space, and
- *sequential scans*: runs of consecutive pages (streaming file/media
  buffers), which have little reuse and stress the replacement policy.

Per-workload parameters (footprint, skew, scan share, page-touch rate)
are chosen so the simulated slowdowns at a 25% local memory reproduce the
shape of the paper's Figure 4(b): websearch and ytube, the workloads with
the largest memory usage, see the largest slowdowns; webmail and
mapred-wc are nearly unaffected.

Footprints are scaled down from the 2 GB baseline (the paper itself
scales datasets for simulation time); miss *rates* at a fixed local
*fraction* are approximately scale-invariant for this trace family, which
the property tests check.

Page ids are stored at their natural width: a trace's dtype is the
narrowest unsigned integer that holds ``footprint_pages - 1``, so every
shipped trace is uint16 (2 bytes a page, a quarter of int64).  Consumers
index with the ids directly and convert to Python ``int`` before any
arithmetic that could leave that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator

import numpy as np


@dataclass(frozen=True)
class PageTraceSpec:
    """Statistical parameters of one workload's page-access stream."""

    name: str
    #: Distinct 4 KB pages touched (working-set footprint).
    footprint_pages: int
    #: Zipf exponent of the reuse component (higher = more concentrated).
    zipf_alpha: float
    #: Fraction of accesses that belong to sequential scans.
    sequential_fraction: float
    #: Page touches per millisecond of execution (drives the slowdown
    #: model: every local-memory miss costs one remote page transfer).
    touches_per_ms: float
    #: Length of one sequential run, pages.
    run_length: int = 64

    def __post_init__(self) -> None:
        if self.footprint_pages <= 0:
            raise ValueError("footprint must be positive")
        if not 0 <= self.sequential_fraction <= 1:
            raise ValueError("sequential fraction must be in [0, 1]")
        if self.zipf_alpha < 0 or self.touches_per_ms <= 0:
            raise ValueError("invalid trace parameters")
        if self.run_length <= 0:
            raise ValueError("run length must be positive")


#: Trace specs per benchmark.  websearch and ytube have the largest
#: memory usage (paper: "the workloads with larger memory usage,
#: websearch and ytube, have the largest slowdown").
WORKLOAD_TRACES: Dict[str, PageTraceSpec] = {
    "websearch": PageTraceSpec(
        "websearch", footprint_pages=65536, zipf_alpha=1.00,
        sequential_fraction=0.10, touches_per_ms=55.0,
    ),
    "webmail": PageTraceSpec(
        "webmail", footprint_pages=16384, zipf_alpha=1.30,
        sequential_fraction=0.02, touches_per_ms=13.0,
    ),
    "ytube": PageTraceSpec(
        "ytube", footprint_pages=65536, zipf_alpha=1.05,
        sequential_fraction=0.18, touches_per_ms=18.0,
    ),
    "mapred-wc": PageTraceSpec(
        "mapred-wc", footprint_pages=32768, zipf_alpha=1.20,
        sequential_fraction=0.05, touches_per_ms=6.0,
    ),
    "mapred-wr": PageTraceSpec(
        "mapred-wr", footprint_pages=32768, zipf_alpha=1.05,
        sequential_fraction=0.10, touches_per_ms=10.0,
    ),
}

#: Zipf draws per ``rng.random`` call in :func:`generate_trace`.
_ZIPF_BLOCK = 65536


def generate_trace(
    spec: PageTraceSpec, length: int, seed: int = 0
) -> np.ndarray:
    """Generate ``length`` page accesses (page ids in ``[0, footprint)``).

    The ids come back in the narrowest unsigned dtype that holds them,
    ``np.min_scalar_type(footprint_pages - 1)``: uint8 up to 256 pages,
    uint16 up to 65,536 (every shipped spec), uint32 above that.
    Arithmetic on them wraps at that width, so a consumer converts
    before it adds or subtracts (``int(trace.max()) + 1``, never
    ``trace.max() + 1``); indexing with them is safe.
    """
    if length <= 0:
        raise ValueError("trace length must be positive")
    rng = np.random.default_rng(seed)
    n = spec.footprint_pages
    dtype = np.min_scalar_type(n - 1)
    seq_accesses = int(length * spec.sequential_fraction)
    zipf_pages = _zipf_pages(spec, length - seq_accesses, rng, dtype)
    if not seq_accesses:
        return zipf_pages

    # Sequential scans: runs of consecutive pages at random offsets,
    # shuffled into the reuse stream at block level.
    starts = rng.integers(0, n, size=-(-seq_accesses // spec.run_length))
    mask = np.zeros(length, dtype=bool)
    mask[rng.choice(length, size=seq_accesses, replace=False)] = True
    trace = np.empty(length, dtype=dtype)
    trace[mask] = (
        (starts[:, None] + np.arange(spec.run_length)) % n
    ).ravel()[:seq_accesses]
    trace[~mask] = zipf_pages
    return trace


def _zipf_pages(
    spec: PageTraceSpec, count: int, rng: np.random.Generator, dtype: np.dtype
) -> np.ndarray:
    """The Zipf reuse component: ``count`` ids by inverse-CDF sampling.

    Drawn block by block, so the float64 draws and int64 ranks stay one
    block long; successive ``random`` calls continue one stream.
    """
    n = spec.footprint_pages
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -spec.zipf_alpha)
    cdf /= cdf[-1]
    # Fixed permutation rank -> page id (hot pages spread over the space).
    permutation = np.random.default_rng(12345).permutation(n).astype(dtype)
    pages = np.empty(count, dtype=dtype)
    for start in range(0, count, _ZIPF_BLOCK):
        draws = rng.random(min(_ZIPF_BLOCK, count - start))
        pages[start:start + len(draws)] = permutation[np.searchsorted(cdf, draws)]
    return pages


@lru_cache(maxsize=8)
def cached_trace(spec: PageTraceSpec, length: int, seed: int = 0) -> np.ndarray:
    """Memoized :func:`generate_trace` (figure4/ablation/sensitivity all
    replay the same ``(spec, length, seed)`` traces across policies,
    fractions, and experiments).  The returned array is shared between
    callers and therefore marked read-only; copy before mutating.  It
    has :func:`generate_trace`'s narrow dtype, so the five shipped
    traces at 8 passes hold 2 bytes a page, 3.4 MB in all.
    """
    trace = generate_trace(spec, length, seed=seed)
    trace.setflags(write=False)
    return trace


def trace_chunks(
    spec: PageTraceSpec, length: int, seed: int = 0, chunk: int = 65536
) -> Iterator[np.ndarray]:
    """The trace as a sequence of read-only batches.

    Scalar consumers (the Random-policy bracketing path, external
    tooling) can stream batches instead of holding ``length`` pages
    live, while still reading the *identical* access stream: chunks are
    views of the one memoized trace.
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    trace = cached_trace(spec, length, seed=seed)
    for start in range(0, length, chunk):
        yield trace[start:start + chunk]
