"""Per-access replacement policies and the two-level replay: the oracle.

The paper deliberately brackets implementable policies between LRU and
random replacement ("rather than exhaustively studying page replacement
policies, we only model LRU and random replacement, expecting that an
implementable policy would have performance between these points").

Both policies model an *exclusive* two-level hierarchy: the local memory
holds ``capacity`` pages; a miss swaps the victim page with the requested
remote page (the victim moves to the memory blade).

:func:`run_scalar` replays a trace through one policy an access at a
time.  :meth:`repro.memsim.twolevel.TwoLevelMemorySimulator.run` must
match it bit for bit: ``tests/perf/test_kernels.py`` and the
miss-ratio-curve budget in ``benchmarks/test_budgets.py`` compare
against it.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Dict, List

from repro.memsim.trace import cached_trace
from repro.memsim.twolevel import MissStats, TwoLevelMemorySimulator


class ReplacementPolicy(ABC):
    """An exclusive local-memory page cache.

    Tracks evictions: in the exclusive two-level design every eviction is
    a victim page travelling to the memory blade.  The paper notes the
    victim writeback is decoupled from the critical-path fetch, so
    evictions cost blade-link *bandwidth* but not request latency.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.evictions = 0

    @abstractmethod
    def access(self, page: int) -> bool:
        """Touch ``page``; return True on a local hit, False on a miss."""

    @abstractmethod
    def resident_pages(self) -> int:
        """Number of pages currently in local memory."""


class LruPolicy(ReplacementPolicy):
    """Least-recently-used replacement."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def access(self, page: int) -> bool:
        pages = self._pages
        if page in pages:
            pages.move_to_end(page)
            return True
        if len(pages) >= self.capacity:
            pages.popitem(last=False)  # evict LRU victim to the blade
            self.evictions += 1
        pages[page] = None
        return False

    def resident_pages(self) -> int:
        return len(self._pages)


class RandomPolicy(ReplacementPolicy):
    """Random-victim replacement (O(1) via index-backed array)."""

    def __init__(self, capacity: int, seed: int = 0):
        super().__init__(capacity)
        self._slots: List[int] = []
        self._index: Dict[int, int] = {}
        self._rng = random.Random(seed)

    def access(self, page: int) -> bool:
        if page in self._index:
            return True
        if len(self._slots) >= self.capacity:
            victim_slot = self._rng.randrange(self.capacity)
            victim = self._slots[victim_slot]
            del self._index[victim]
            self._slots[victim_slot] = page
            self._index[page] = victim_slot
            self.evictions += 1
        else:
            self._index[page] = len(self._slots)
            self._slots.append(page)
        return False

    def resident_pages(self) -> int:
        return len(self._slots)


def make_policy(name: str, capacity: int, seed: int = 0) -> ReplacementPolicy:
    """Factory: ``"lru"`` or ``"random"``."""
    if name == "lru":
        return LruPolicy(capacity)
    if name == "random":
        return RandomPolicy(capacity, seed=seed)
    raise ValueError(f"unknown replacement policy {name!r}")


def run_scalar(sim: TwoLevelMemorySimulator, length: int) -> MissStats:
    """Reference per-access policy replay (the oracle)."""
    trace = cached_trace(sim.spec, length, seed=sim.seed)
    policy = make_policy(sim.policy_name, sim.local_capacity, seed=sim.seed)

    warmup = min(sim.spec.footprint_pages, length // 2)
    misses = 0
    accesses = 0
    evictions_at_window = 0
    seen: set = set()
    for i, page in enumerate(trace):
        page = int(page)
        if i == warmup:
            evictions_at_window = policy.evictions
        first_touch = page not in seen
        if first_touch:
            seen.add(page)
        hit = policy.access(page)
        if i >= warmup:
            accesses += 1
            # Compulsory first touches are page allocations, not
            # remote fetches; only genuine capacity misses pay the
            # blade round trip.
            if not hit and not first_touch:
                misses += 1
    return MissStats(
        accesses=accesses, misses=misses,
        local_capacity_pages=sim.local_capacity,
        writebacks=policy.evictions - evictions_at_window,
    )
