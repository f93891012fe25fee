"""The vectorized trace kernels against their scalar oracles.

The contract is *exactness*, not approximation: every counter the
single-pass kernels report must equal the scalar replay bit for bit --
on random traces and on every real workload trace the experiments use.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.trace import WORKLOAD_TRACES, cached_trace
from repro.memsim.twolevel import (
    TwoLevelMemorySimulator,
    lru_fraction_sweep,
    lru_miss_curve,
)
from repro.perf.kernels import (
    FIRST_TOUCH,
    miss_ratio_curve,
    prev_greater_counts,
    previous_occurrences,
    stack_distances,
)
from tests.memsim.reference_twolevel import LruPolicy, run_scalar

#: Shortened trace for the workload-equality sweep (full Figure 4 runs
#: are exercised in tests/experiments; the kernels are length-agnostic).
TRACE_LENGTH = 60_000


def _brute_distances(trace):
    from collections import OrderedDict

    stack = OrderedDict()
    dist = np.zeros(len(trace), dtype=np.int64)
    first = np.zeros(len(trace), dtype=bool)
    for i, page in enumerate(trace):
        page = int(page)
        if page in stack:
            dist[i] = list(reversed(stack.keys())).index(page) + 1
            stack.move_to_end(page)
        else:
            dist[i] = FIRST_TOUCH
            first[i] = True
            stack[page] = None
    return dist, first


class TestPrimitives:
    def test_previous_occurrences(self):
        trace = np.array([3, 1, 3, 3, 1, 2], dtype=np.int64)
        expected = np.array([-1, -1, 0, 2, 1, -1], dtype=np.int64)
        assert np.array_equal(previous_occurrences(trace), expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_prev_greater_counts_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        values = rng.integers(-1, 50, size=n).astype(np.int64)
        expected = np.array(
            [sum(1 for j in range(i) if values[j] > values[i]) for i in range(n)],
            dtype=np.int64,
        )
        assert np.array_equal(prev_greater_counts(values), expected)

    def test_empty_input(self):
        assert prev_greater_counts(np.array([], dtype=np.int64)).size == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_stack_distances_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 400))
        trace = rng.integers(0, int(rng.integers(1, 40)), size=n).astype(np.int64)
        dist, first = stack_distances(trace)
        want_dist, want_first = _brute_distances(trace)
        assert np.array_equal(first, want_first)
        assert np.array_equal(dist, want_dist)

    @pytest.mark.parametrize("workload", ("webmail", "ytube"))
    def test_compact_trace_gives_the_full_width_distances(self, workload):
        """The kernels read a generated trace at its own uint16 width;
        widening it first changes no distance."""
        trace = cached_trace(WORKLOAD_TRACES[workload], TRACE_LENGTH, seed=0)
        assert trace.dtype == np.uint16
        dist, first = stack_distances(trace)
        wide_dist, wide_first = stack_distances(trace.astype(np.int64))
        assert np.array_equal(first, wide_first)
        assert np.array_equal(dist, wide_dist)

    def test_distance_answers_lru_hits(self):
        """dist[i] <= C iff the access hits an LRU cache of capacity C."""
        rng = np.random.default_rng(5)
        trace = rng.integers(0, 30, size=500).astype(np.int64)
        dist, _ = stack_distances(trace)
        for capacity in (1, 3, 7, 16, 40):
            policy = LruPolicy(capacity)
            hits = np.array([policy.access(int(p)) for p in trace])
            assert np.array_equal(dist <= capacity, hits)


class TestMissRatioCurve:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_TRACES))
    @pytest.mark.parametrize("fraction", (0.25, 0.125))
    def test_exact_equality_with_scalar_simulator(self, workload, fraction):
        """The tentpole contract: identical MissStats for every workload
        x fraction the Figure 4 sweep evaluates."""
        sim = TwoLevelMemorySimulator(
            WORKLOAD_TRACES[workload], fraction, policy="lru"
        )
        assert sim.run(TRACE_LENGTH) == run_scalar(sim, TRACE_LENGTH)

    def test_miss_curve_monotonically_non_increasing(self):
        spec = WORKLOAD_TRACES["webmail"]
        curve = lru_miss_curve(spec, TRACE_LENGTH)
        capacities = np.arange(1, spec.footprint_pages + 100, 37)
        misses = curve.misses(capacities)
        assert np.all(np.diff(misses) <= 0)
        assert misses[-1] == 0  # cache bigger than the footprint

    def test_eviction_curve_monotone_and_consistent(self):
        curve = lru_miss_curve(WORKLOAD_TRACES["webmail"], TRACE_LENGTH)
        capacities = np.arange(1, 20_000, 113)
        evictions = curve.evictions(capacities)
        assert np.all(np.diff(evictions) <= 0)
        writebacks = curve.writebacks(capacities)
        assert np.all(writebacks >= 0)
        assert np.all(writebacks <= evictions)

    def test_fraction_sweep_matches_individual_runs(self):
        spec = WORKLOAD_TRACES["mapred-wc"]
        fractions = (0.5, 0.25, 0.125, 0.0625)
        sweep = lru_fraction_sweep(spec, fractions, trace_length=TRACE_LENGTH)
        for fraction in fractions:
            sim = TwoLevelMemorySimulator(spec, fraction, policy="lru")
            assert sweep[fraction] == run_scalar(sim, TRACE_LENGTH)

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            miss_ratio_curve(np.array([1, 2, 3]), warmup=7)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces_any_warmup(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(20, 400))
        trace = rng.integers(0, int(rng.integers(2, 50)), size=n).astype(np.int64)
        warmup = int(rng.integers(0, n))
        curve = miss_ratio_curve(trace, warmup=warmup)
        for capacity in (1, 2, 5, 11, 29, 64):
            policy = LruPolicy(capacity)
            seen = set()
            misses = 0
            evictions_at_window = 0
            for i, page in enumerate(trace):
                page = int(page)
                if i == warmup:
                    evictions_at_window = policy.evictions
                first_touch = page not in seen
                seen.add(page)
                hit = policy.access(page)
                if i >= warmup and not hit and not first_touch:
                    misses += 1
            counts = curve.counts(capacity)
            assert counts.misses == misses
            assert counts.evictions == policy.evictions
            assert counts.writebacks == policy.evictions - evictions_at_window


class TestRandomReplay:
    """The flat Random loop against the per-access ``RandomPolicy``
    replay (``run_scalar``).  The loop draws victims with
    ``getrandbits`` the way ``randrange`` does, so these run on every
    CPython the test matrix covers."""

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_TRACES))
    @pytest.mark.parametrize("fraction", (0.25, 0.125))
    def test_figure4_cells_match_policy_replay(self, workload, fraction):
        sim = TwoLevelMemorySimulator(
            WORKLOAD_TRACES[workload], fraction, policy="random"
        )
        assert sim.run(TRACE_LENGTH) == run_scalar(sim, TRACE_LENGTH)

    @settings(max_examples=40, deadline=None)
    @given(
        workload=st.sampled_from(sorted(WORKLOAD_TRACES)),
        fraction=st.floats(min_value=1e-5, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1, max_value=16_000),
    )
    def test_matches_policy_replay_below_the_footprint(
        self, workload, fraction, seed, length
    ):
        """Traces shorter than twice the footprint move the warmup edge
        to ``length // 2``; capacities go down to a single page."""
        sim = TwoLevelMemorySimulator(
            WORKLOAD_TRACES[workload], fraction, policy="random", seed=seed
        )
        assert sim.run(length) == run_scalar(sim, length)


class TestTraceMemoization:
    def test_cached_trace_is_generate_trace(self):
        from repro.memsim.trace import generate_trace

        spec = WORKLOAD_TRACES["webmail"]
        assert np.array_equal(
            cached_trace(spec, 20_000, seed=3), generate_trace(spec, 20_000, seed=3)
        )

    def test_cached_trace_returns_same_object(self):
        spec = WORKLOAD_TRACES["webmail"]
        a = cached_trace(spec, 10_000, seed=0)
        b = cached_trace(spec, 10_000, seed=0)
        assert a is b

    def test_cached_trace_is_read_only(self):
        trace = cached_trace(WORKLOAD_TRACES["webmail"], 10_000, seed=0)
        with pytest.raises(ValueError):
            trace[0] = 1

    def test_trace_chunks_reassemble_exactly(self):
        from repro.memsim.trace import trace_chunks

        spec = WORKLOAD_TRACES["webmail"]
        chunks = list(trace_chunks(spec, 10_000, seed=1, chunk=1024))
        assert sum(len(c) for c in chunks) == 10_000
        assert np.array_equal(
            np.concatenate(chunks), cached_trace(spec, 10_000, seed=1)
        )

    def test_trace_chunks_validation(self):
        from repro.memsim.trace import trace_chunks

        with pytest.raises(ValueError):
            list(trace_chunks(WORKLOAD_TRACES["webmail"], 100, chunk=0))

    def test_curve_memoized_across_callers(self):
        spec = WORKLOAD_TRACES["webmail"]
        assert lru_miss_curve(spec, 10_000) is lru_miss_curve(spec, 10_000)
