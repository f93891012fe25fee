"""Single-pass miss-ratio-curve kernels for the trace simulators.

Exact LRU obeys the *inclusion* (stack) property: the content of an LRU
cache of capacity ``C`` is always the top ``C`` entries of the recency
stack, for every ``C`` at once.  One pass that records each access's
**stack distance** -- the number of distinct addresses touched since the
previous access to the same address, counting that address itself --
therefore answers hit/miss for *every* capacity: access ``i`` hits a
cache of capacity ``C`` iff ``dist[i] <= C`` (Mattson et al., 1970).

The kernels here compute the full stack-distance histogram of a trace
with numpy in ``O(n log n)`` and package it as:

- :class:`MissRatioCurve` -- miss/eviction/writeback counts for the
  two-level memory simulator, bit-identical to replaying the trace
  through the scalar ``LruPolicy`` (which stays as the oracle; see
  ``tests/perf/test_kernels.py``).
- :class:`FlashHitCurve` -- hit/wear counters for a read stream through
  the flash disk cache at every capacity at once.
- :func:`flash_replay` -- an exact vectorized replay of the flash
  cache's *mixed* read/write discipline at one capacity (write-through
  updates refresh recency only when the object is resident, which makes
  the verdicts self-referential; solved by fixed-point iteration with a
  scalar fallback).

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
handles all pairs), a prefix-sum turns ranks into counted-element
counts, and the same ranks drive the merge for the next level.
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


def prev_greater_counts(
    values: np.ndarray, counted: np.ndarray | None = None
) -> np.ndarray:
    """``out[i] = #{j < i : counted[j] and values[j] > values[i]}``.

    Bottom-up mergesort with a *merge-path* trick: blocks are kept
    sorted; to merge sibling blocks (L, R), every R element finds its
    insertion point in L with one flat :func:`np.searchsorted` over keys
    packed as ``pair_id * span + (value - vmin)`` (pair blocks occupy
    disjoint key ranges, so one global call ranks all pairs at once).
    Elements left of the insertion point are the earlier-indexed
    greater-or-equal candidates; a per-row prefix sum of the ``counted``
    flags converts insertion points into counts of strictly-greater
    counted elements.  The same ranks place both blocks for the next
    level.  ``O(n log n)`` work, ``O(log n)`` numpy dispatches.

    ``counted=None`` counts every element.  Precondition: ``n/2 *
    (value range + 2)`` must fit in int64 -- always true for the trace
    indices used here.
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
    flags = np.zeros(size, dtype=np.int64)
    if counted is None:
        flags[:n] = 1
    else:
        flags[:n] = np.asarray(counted, dtype=bool)
    vmin = sentinel
    span = int(values.max()) - vmin + 2

    b = 1
    while b < size:
        m = size // (2 * b)
        V3 = vals.reshape(m, 2, b)
        I3 = idx.reshape(m, 2, b)
        F3 = flags.reshape(m, 2, b)
        C3 = cnt.reshape(m, 2, b)
        VL, VR = V3[:, 0, :], V3[:, 1, :]
        pair = np.arange(m, dtype=np.int64)[:, None]
        keyL = (pair * span + (VL - vmin)).ravel()
        keyR = (pair * span + (VR - vmin)).ravel()

        # For each R element: how many L elements are <= it (le2), and of
        # those, how many carry the counted flag (prefix sum of flags).
        le2 = np.searchsorted(keyL, keyR, side="right").reshape(m, b) - pair * b
        pcumL = np.zeros((m, b + 1), dtype=np.int64)
        np.cumsum(F3[:, 0, :], axis=1, out=pcumL[:, 1:])
        counted_le = np.take_along_axis(pcumL, le2, axis=1)
        C3[:, 1, :] += pcumL[:, b][:, None] - counted_le

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
        nf = np.empty_like(flags).reshape(m, 2 * b)
        nc = np.empty_like(cnt).reshape(m, 2 * b)
        nv[rows, posL] = VL
        nv[rows, posR] = VR
        ni[rows, posL] = I3[:, 0, :]
        ni[rows, posR] = I3[:, 1, :]
        nf[rows, posL] = F3[:, 0, :]
        nf[rows, posR] = F3[:, 1, :]
        nc[rows, posL] = C3[:, 0, :]
        nc[rows, posR] = C3[:, 1, :]
        vals, idx, flags, cnt = nv.ravel(), ni.ravel(), nf.ravel(), nc.ravel()
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

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


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

    def hits(self, capacity):
        """Hits inside the measurement window (non-first, ``dist <= C``)."""
        window_non_first = self._window_dists.shape[0]
        return window_non_first - self.misses(capacity)

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

    def miss_rate(self, capacity):
        m = self.misses(capacity)
        if not self.accesses:
            return np.zeros_like(np.asarray(m, dtype=float)) if np.ndim(m) else 0.0
        return np.asarray(m) / self.accesses if np.ndim(m) else m / self.accesses

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


@dataclass(frozen=True)
class FlashCounts:
    """Flash-cache hit/wear counters, mirroring ``FlashCacheStats``."""

    lookups: int
    hits: int
    insertions: int
    evictions: int
    block_writes: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class FlashHitCurve:
    """All-capacities flash-cache counters for a read stream.

    On a pure read stream every access refreshes LRU recency, so the
    flash cache is an exact LRU stack and one stack-distance pass
    answers every device capacity at once:

    - ``hits(C)``       = non-first accesses with ``dist <= C``;
    - ``insertions(C)`` = misses (every miss installs the object);
    - ``evictions(C)``  = ``max(0, insertions - C)`` (the cache only
      evicts once full, and it never shrinks);
    - ``block_writes(C)`` = insertions (each install is one flash write;
      no write-through traffic on a read stream).

    For mixed read/write streams use :func:`flash_replay`.
    """

    def __init__(self, lookups: int, sorted_dists: np.ndarray):
        self.lookups = int(lookups)
        self._dists = sorted_dists

    def hits(self, capacity):
        cap = np.asarray(capacity, dtype=np.int64)
        out = np.searchsorted(self._dists, cap, side="right")
        return int(out) if cap.ndim == 0 else out

    def counts(self, capacity: int) -> FlashCounts:
        hits = self.hits(capacity)
        insertions = self.lookups - hits
        return FlashCounts(
            lookups=self.lookups,
            hits=hits,
            insertions=insertions,
            evictions=max(0, insertions - int(capacity)),
            block_writes=insertions,
        )


def flash_hit_curve(object_ids: np.ndarray) -> FlashHitCurve:
    """Build the :class:`FlashHitCurve` of a read-only object stream."""
    object_ids = np.ascontiguousarray(object_ids)
    dist, first = stack_distances(object_ids)
    return FlashHitCurve(
        lookups=object_ids.shape[0], sorted_dists=np.sort(dist[~first])
    )


def _flash_verdicts(
    object_ids: np.ndarray, active: np.ndarray, capacity: int
) -> np.ndarray:
    """``hit[i]``: would access ``i`` find its object resident, given
    that exactly the ``active`` accesses refresh the LRU stack?

    Stack distance relative to a *subsequence*: the previous active
    access to the same object (segmented running max over a stable
    by-object sort), the count of active accesses in the window, and a
    masked :func:`prev_greater_counts` for the distinct correction.
    """
    n = object_ids.shape[0]
    order = np.argsort(object_ids, kind="stable")
    pos = np.arange(n, dtype=np.int64)
    pos_if_active = np.where(active, pos, np.int64(-1))[order]
    sorted_ids = object_ids[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_ids[1:] != sorted_ids[:-1]
    # Segmented exclusive cummax via group-offset packing: each object's
    # run occupies a disjoint key band, so one global running max gives
    # the latest *active* earlier access to the same object.
    group = np.cumsum(new_group) - 1
    base = group * np.int64(n + 2)
    run_max = np.maximum.accumulate(pos_if_active + base)
    exclusive = np.empty(n, dtype=np.int64)
    exclusive[0] = np.iinfo(np.int64).min // 2
    exclusive[1:] = run_max[:-1]
    prev_sorted = exclusive - base
    prev_sorted[prev_sorted < 0] = -1
    prev_active = np.empty(n, dtype=np.int64)
    prev_active[order] = prev_sorted

    cum_active = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(active, out=cum_active[1:])
    cnt = prev_greater_counts(prev_active, counted=active)
    window = cum_active[pos] - cum_active[np.minimum(prev_active + 1, n)]
    dist = window - cnt + 1
    return (prev_active >= 0) & (dist <= capacity)


def _flash_replay_scalar(
    object_ids: np.ndarray, is_write: np.ndarray, capacity: int
) -> FlashCounts:
    """Scalar replica of the ``FlashCache`` counters (oracle/fallback)."""
    from collections import OrderedDict

    objects: "OrderedDict[int, None]" = OrderedDict()
    lookups = hits = insertions = evictions = block_writes = 0
    for oid, write in zip(object_ids.tolist(), is_write.tolist()):
        if write:
            if oid in objects:  # write-through update of a cached object
                objects.move_to_end(oid)
                block_writes += 1
            continue
        lookups += 1
        if oid in objects:
            objects.move_to_end(oid)
            hits += 1
            continue
        if len(objects) >= capacity:
            objects.popitem(last=False)
            evictions += 1
        objects[oid] = None
        insertions += 1
        block_writes += 1
    return FlashCounts(
        lookups=lookups,
        hits=hits,
        insertions=insertions,
        evictions=evictions,
        block_writes=block_writes,
    )


def flash_replay(
    object_ids: np.ndarray,
    is_write: np.ndarray,
    capacity: int,
    max_iterations: int = 12,
) -> FlashCounts:
    """Exact flash-cache counters for a mixed read/write stream.

    Replays the cache's access discipline (reads: lookup, install on
    miss; writes: write-through refresh only when resident) without the
    scalar loop.  The twist is that a write refreshes recency *only on a
    hit*, so whether an access moves the LRU stack depends on earlier
    hit verdicts.  Iterate: start assuming every access refreshes,
    compute verdicts under that assumption, set the refreshing set to
    ``reads | hits``, repeat until it stops changing.  Any fixed point
    equals the sequential truth (consider the earliest access where a
    consistent assignment could differ from the sequential replay: all
    earlier verdicts agree, so the stack below it agrees, so its verdict
    agrees too).  The map is not monotone, so convergence is capped at
    ``max_iterations``; the rare non-converged case falls back to the
    scalar replica and stays exact.
    """
    object_ids = np.ascontiguousarray(object_ids, dtype=np.int64)
    is_write = np.ascontiguousarray(is_write, dtype=bool)
    if object_ids.shape != is_write.shape:
        raise ValueError("object_ids and is_write must have the same shape")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if object_ids.shape[0] == 0:
        return FlashCounts(0, 0, 0, 0, 0)

    reads = ~is_write
    active = np.ones(object_ids.shape[0], dtype=bool)
    for _ in range(max_iterations):
        hit = _flash_verdicts(object_ids, active, capacity)
        refreshed = reads | hit
        if np.array_equal(refreshed, active):
            lookups = int(reads.sum())
            read_hits = int((hit & reads).sum())
            write_hits = int((hit & is_write).sum())
            insertions = lookups - read_hits
            return FlashCounts(
                lookups=lookups,
                hits=read_hits,
                insertions=insertions,
                evictions=max(0, insertions - capacity),
                block_writes=insertions + write_hits,
            )
        active = refreshed
    return _flash_replay_scalar(object_ids, is_write, capacity)


__all__ = [
    "FIRST_TOUCH",
    "FlashCounts",
    "FlashHitCurve",
    "MissCounts",
    "MissRatioCurve",
    "flash_hit_curve",
    "flash_replay",
    "miss_ratio_curve",
    "prev_greater_counts",
    "previous_occurrences",
    "stack_distances",
]
