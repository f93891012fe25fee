"""Tests (incl. property-based) of the replacement policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.memsim.reference_twolevel import LruPolicy, RandomPolicy, make_policy


class TestLruPolicy:
    def test_first_touch_misses_second_hits(self):
        lru = LruPolicy(4)
        assert not lru.access(1)
        assert lru.access(1)

    def test_evicts_least_recently_used(self):
        lru = LruPolicy(2)
        lru.access(1)
        lru.access(2)
        lru.access(1)       # refresh 1; LRU victim is now 2
        lru.access(3)       # evicts 2
        assert lru.access(1)
        assert not lru.access(2)

    def test_capacity_respected(self):
        lru = LruPolicy(3)
        for page in range(10):
            lru.access(page)
        assert lru.resident_pages() == 3

    def test_scan_through_large_set_thrashes(self):
        lru = LruPolicy(4)
        for page in range(8):
            lru.access(page)
        # A second identical scan misses everything (classic LRU thrash).
        assert not any(lru.access(page) for page in range(4))


class TestRandomPolicy:
    def test_hit_after_insert(self):
        policy = RandomPolicy(4, seed=1)
        assert not policy.access(7)
        assert policy.access(7)

    def test_capacity_respected(self):
        policy = RandomPolicy(5, seed=2)
        for page in range(100):
            policy.access(page)
        assert policy.resident_pages() == 5

    def test_deterministic_by_seed(self):
        def misses(seed):
            policy = RandomPolicy(8, seed=seed)
            return [policy.access(p % 12) for p in range(200)]

        assert misses(3) == misses(3)


class TestFactory:
    def test_makes_both_policies(self):
        assert isinstance(make_policy("lru", 4), LruPolicy)
        assert isinstance(make_policy("random", 4), RandomPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("clock", 4)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            make_policy("lru", 0)


class TestPolicyProperties:
    @given(
        policy_name=st.sampled_from(["lru", "random"]),
        capacity=st.integers(min_value=1, max_value=32),
        pages=st.lists(st.integers(min_value=0, max_value=100), max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, policy_name, capacity, pages):
        """A hit requires a prior access; occupancy never exceeds capacity;
        a trace that fits entirely misses each page exactly once."""
        policy = make_policy(policy_name, capacity, seed=1)
        seen = set()
        for page in pages:
            hit = policy.access(page)
            if hit:
                assert page in seen
            seen.add(page)
            assert policy.resident_pages() <= capacity

    @given(pages=st.lists(st.integers(min_value=0, max_value=9), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_full_fit_never_misses_twice(self, pages):
        policy = LruPolicy(16)  # all 10 possible pages fit
        misses = sum(not policy.access(p) for p in pages)
        assert misses == len(set(pages))
