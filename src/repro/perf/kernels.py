"""Single-pass miss-ratio-curve kernels for the trace simulators.

Exact LRU obeys the *inclusion* (stack) property: the content of an LRU
cache of capacity ``C`` is always the top ``C`` entries of the recency
stack, for every ``C`` at once.  One pass that records each access's
**stack distance** -- the number of distinct addresses touched since the
previous access to the same address, counting that address itself --
therefore answers hit/miss for *every* capacity: access ``i`` hits a
cache of capacity ``C`` iff ``dist[i] <= C`` (Mattson et al., 1970).

The kernels here compute the full stack-distance histogram of a trace
with numpy in ``O(n log n)`` and package it as a :class:`MissRatioCurve`:
miss/eviction/writeback counts for the two-level memory simulator,
bit-identical to replaying the trace through the scalar ``LruPolicy``
(which stays as the oracle; see ``tests/perf/test_kernels.py``).

The stack distance reduces to an inversion count: with ``prev[i]`` the
index of the previous access to the same address (``-1`` on a first
touch), the distinct addresses between ``prev[i]`` and ``i`` are exactly
the accesses ``j`` in ``(prev[i], i)`` whose *own* previous occurrence
lies at or before ``prev[i]`` -- i.e.

    dist[i] = (i - prev[i]) - #{j < i : prev[j] > prev[i]}

because non-first ``prev`` values are distinct and every ``j`` with
``prev[j] > prev[i]`` sits inside the window and duplicates an address
already counted.  :func:`prev_greater_counts` computes those per-element
"previous greater" counts with a vectorized bottom-up mergesort: at each
level, one flat ``searchsorted`` ranks every right-block element within
its left sibling (rows packed as ``pair_id * span + value`` so one call
handles all pairs), each rank gives the count of greater left-block
elements, and the same ranks drive the merge for the next level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Stack distance assigned to first touches (compulsory misses): larger
#: than any possible capacity, so ``dist > C`` for every ``C``.
FIRST_TOUCH = np.iinfo(np.int64).max


def previous_occurrences(values: np.ndarray) -> np.ndarray:
    """``prev[i]`` = index of the previous occurrence of ``values[i]``
    (``-1`` if ``i`` is the first occurrence).  Vectorized via one stable
    argsort: equal values stay in index order, so each sorted element's
    predecessor-with-same-value is its previous occurrence.
    """
    values = np.ascontiguousarray(values)
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    prev = np.full(n, -1, dtype=np.int64)
    if n > 1:
        same = values[order[1:]] == values[order[:-1]]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def prev_greater_counts(values: np.ndarray) -> np.ndarray:
    """``out[i] = #{j < i : values[j] > values[i]}``.

    Bottom-up mergesort with a *merge-path* trick: blocks are kept
    sorted; to merge sibling blocks (L, R), every R element finds its
    insertion point in L with one flat :func:`np.searchsorted` over keys
    packed as ``pair_id * span + (value - vmin)`` (pair blocks occupy
    disjoint key ranges, so one global call ranks all pairs at once).
    The L elements right of the insertion point are the earlier-indexed
    strictly-greater ones.  The same ranks place both blocks for the
    next level.  ``O(n log n)`` work, ``O(log n)`` numpy dispatches.

    Padding fills the tail up to a power of two, so a left block holds
    padding only when its right sibling is all padding: padding never
    counts toward a real element.  Precondition: ``n/2 * (value range +
    2)`` must fit in int64 -- always true for the trace indices used
    here.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n = values.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    size = 1
    while size < n:
        size <<= 1
    sentinel = int(values.min()) - 1  # pads sort before every real value
    vals = np.full(size, sentinel, dtype=np.int64)
    vals[:n] = values
    idx = np.arange(size, dtype=np.int64)
    cnt = np.zeros(size, dtype=np.int64)
    vmin = sentinel
    span = int(values.max()) - vmin + 2

    b = 1
    while b < size:
        m = size // (2 * b)
        V3 = vals.reshape(m, 2, b)
        I3 = idx.reshape(m, 2, b)
        C3 = cnt.reshape(m, 2, b)
        VL, VR = V3[:, 0, :], V3[:, 1, :]
        pair = np.arange(m, dtype=np.int64)[:, None]
        keyL = (pair * span + (VL - vmin)).ravel()
        keyR = (pair * span + (VR - vmin)).ravel()

        # For each R element: how many L elements are <= it (le2); the
        # other b - le2 are greater.
        le2 = np.searchsorted(keyL, keyR, side="right").reshape(m, b) - pair * b
        C3[:, 1, :] += b - le2

        # Merge positions: R goes to rank_in_R + (#L <= r); L goes to
        # rank_in_L + (#R strictly < l).  Ties break toward L, keeping
        # the sort stable in original-index order.
        lt2 = np.searchsorted(keyR, keyL, side="left").reshape(m, b) - pair * b
        rank = np.arange(b, dtype=np.int64)[None, :]
        posR = rank + le2
        posL = rank + lt2
        rows = np.arange(m)[:, None]
        nv = np.empty_like(vals).reshape(m, 2 * b)
        ni = np.empty_like(idx).reshape(m, 2 * b)
        nc = np.empty_like(cnt).reshape(m, 2 * b)
        nv[rows, posL] = VL
        nv[rows, posR] = VR
        ni[rows, posL] = I3[:, 0, :]
        ni[rows, posR] = I3[:, 1, :]
        nc[rows, posL] = C3[:, 0, :]
        nc[rows, posR] = C3[:, 1, :]
        vals, idx, cnt = nv.ravel(), ni.ravel(), nc.ravel()
        b *= 2

    out = np.zeros(n, dtype=np.int64)
    keep = idx < n
    out[idx[keep]] = cnt[keep]
    return out


def stack_distances(trace: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LRU stack distance of every access, in one pass.

    Returns ``(dist, first)`` where ``first[i]`` marks first touches
    (whose ``dist`` is :data:`FIRST_TOUCH`) and otherwise ``dist[i]`` is
    the 1-based recency-stack depth of the address at access ``i`` --
    the access hits an LRU cache of capacity ``C`` iff ``dist[i] <= C``.
    """
    trace = np.ascontiguousarray(trace)
    n = trace.shape[0]
    prev = previous_occurrences(trace)
    cnt = prev_greater_counts(prev)
    first = prev == -1
    dist = np.where(
        first, FIRST_TOUCH, np.arange(n, dtype=np.int64) - prev - cnt
    )
    return dist, first


@dataclass(frozen=True)
class MissCounts:
    """Exact counters for one capacity, mirroring the scalar simulator."""

    accesses: int
    misses: int
    evictions: int
    writebacks: int


class MissRatioCurve:
    """All-capacities LRU miss/eviction counts from one trace pass.

    Mirrors ``TwoLevelMemorySimulator.run`` semantics exactly: a warmup
    prefix is excluded from the access/miss counts, compulsory first
    touches never count as misses, and writebacks are the evictions that
    happen inside the measurement window.  For every capacity ``C``:

    - ``misses(C)``     = non-first accesses in the window with
      ``dist > C`` (sorted-histogram lookup, O(log n));
    - ``evictions(C)``  = ``max(0, footprint - C)`` first-touch
      evictions plus every non-first miss over the whole trace (a
      non-first miss always evicts: its address had ``> C`` distinct
      pages touched since last use, so the cache was full);
    - ``writebacks(C)`` = ``evictions(C)`` minus the evictions that had
      already happened when the warmup window closed.

    Capacity arguments may be scalars or numpy arrays (vectorized
    queries for sweeps and monotonicity tests).
    """

    def __init__(
        self,
        length: int,
        warmup: int,
        footprint: int,
        warmup_footprint: int,
        pre_dists: np.ndarray,
        window_dists: np.ndarray,
    ):
        self.length = int(length)
        self.warmup = int(warmup)
        #: Distinct addresses in the whole trace / in the warmup prefix.
        self.footprint = int(footprint)
        self.warmup_footprint = int(warmup_footprint)
        #: Sorted stack distances of non-first accesses, split at warmup.
        self._pre_dists = pre_dists
        self._window_dists = window_dists

    @property
    def accesses(self) -> int:
        """Measured accesses (everything after warmup)."""
        return self.length - self.warmup

    def _greater(self, sorted_dists: np.ndarray, capacity):
        cap = np.asarray(capacity, dtype=np.int64)
        out = sorted_dists.shape[0] - np.searchsorted(
            sorted_dists, cap, side="right"
        )
        return int(out) if cap.ndim == 0 else out

    def misses(self, capacity):
        """Capacity misses inside the measurement window."""
        return self._greater(self._window_dists, capacity)

    def evictions(self, capacity, *, upto_warmup: bool = False):
        """LRU evictions over the whole trace (or the warmup prefix)."""
        cap = np.asarray(capacity, dtype=np.int64)
        footprint = self.warmup_footprint if upto_warmup else self.footprint
        first_touch_evictions = np.maximum(0, footprint - cap)
        non_first = self._greater(self._pre_dists, capacity)
        if not upto_warmup:
            non_first = non_first + self._greater(self._window_dists, capacity)
        out = first_touch_evictions + non_first
        return int(out) if cap.ndim == 0 else out

    def writebacks(self, capacity):
        """Evictions inside the measurement window (bandwidth cost)."""
        cap = np.asarray(capacity, dtype=np.int64)
        out = np.asarray(self.evictions(capacity)) - np.asarray(
            self.evictions(capacity, upto_warmup=True)
        )
        return int(out) if cap.ndim == 0 else out

    def counts(self, capacity: int) -> MissCounts:
        """All counters for one capacity, matching the scalar simulator."""
        return MissCounts(
            accesses=self.accesses,
            misses=self.misses(capacity),
            evictions=self.evictions(capacity),
            writebacks=self.writebacks(capacity),
        )


def miss_ratio_curve(trace: np.ndarray, warmup: int = 0) -> MissRatioCurve:
    """Build the exact :class:`MissRatioCurve` of a trace in one pass."""
    trace = np.ascontiguousarray(trace)
    n = trace.shape[0]
    if not 0 <= warmup <= n:
        raise ValueError("warmup must be within the trace")
    dist, first = stack_distances(trace)
    non_first = ~first
    pre = non_first[:warmup]
    return MissRatioCurve(
        length=n,
        warmup=warmup,
        footprint=int(first.sum()),
        warmup_footprint=int(first[:warmup].sum()),
        pre_dists=np.sort(dist[:warmup][pre]),
        window_dists=np.sort(dist[warmup:][non_first[warmup:]]),
    )


__all__ = [
    "FIRST_TOUCH",
    "MissCounts",
    "MissRatioCurve",
    "miss_ratio_curve",
    "prev_greater_counts",
    "previous_occurrences",
    "stack_distances",
]
