"""Tests (incl. property-based) for the Zipf sampler."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.zipf import ZipfSampler, discrete_sample, zipf_weights


def probability(sampler, rank: int) -> float:
    """Probability mass of a 0-based rank, read off the sampler's CDF."""
    if not 0 <= rank < sampler.n:
        raise IndexError(f"rank {rank} out of range [0, {sampler.n})")
    lo = sampler._cdf[rank - 1] if rank > 0 else 0.0
    return sampler._cdf[rank] - lo


class _FixedUniform:
    """random.Random stand-in returning a preset uniform draw."""

    def __init__(self, value):
        self._value = value

    def random(self):
        return self._value


class TestZipfWeights:
    def test_weights_are_decreasing(self):
        w = zipf_weights(100, 0.8)
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_alpha_zero_is_uniform(self):
        assert zipf_weights(5, 0.0) == [1.0] * 5

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(1000, 0.9)
        total = sum(probability(sampler, r) for r in range(1000))
        assert total == pytest.approx(1.0)

    def test_rank_zero_is_most_popular(self):
        sampler = ZipfSampler(1000, 0.9)
        assert probability(sampler, 0) > probability(sampler, 1)
        assert probability(sampler, 1) > probability(sampler, 100)

    def test_head_mass_monotonic_and_bounded(self):
        sampler = ZipfSampler(1000, 0.8)
        masses = [sampler.head_mass(k) for k in (0, 1, 10, 100, 1000, 5000)]
        assert masses[0] == 0.0
        assert all(a <= b for a, b in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(1.0)

    def test_empirical_skew(self):
        sampler = ZipfSampler(100, 1.0)
        rng = random.Random(3)
        draws = [sampler.sample(rng) for _ in range(20_000)]
        top10 = sum(1 for d in draws if d < 10) / len(draws)
        assert top10 == pytest.approx(sampler.head_mass(10), abs=0.02)

    def test_probability_out_of_range(self):
        sampler = ZipfSampler(10, 1.0)
        with pytest.raises(IndexError):
            probability(sampler, 10)

    @given(
        n=st.integers(min_value=1, max_value=5000),
        alpha=st.floats(min_value=0.0, max_value=2.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_samples_always_in_range(self, n, alpha, seed):
        sampler = ZipfSampler(n, alpha)
        rng = random.Random(seed)
        for _ in range(20):
            assert 0 <= sampler.sample(rng) < n

    def test_cdf_tail_is_exactly_one(self):
        sampler = ZipfSampler(1000, 1.2)
        assert sampler._cdf[-1] == 1.0

    @pytest.mark.parametrize("n", (1, 2, 7, 1000))
    def test_tail_draw_stays_in_range(self, n):
        """Regression: a uniform draw just below 1.0 (past any float
        shortfall in the accumulated CDF) must map to rank n-1, never n."""
        sampler = ZipfSampler(n, 1.1)
        u = np.nextafter(1.0, 0.0)
        assert sampler.sample(_FixedUniform(u)) == n - 1


class TestDiscreteSample:
    def test_respects_weights(self):
        rng = random.Random(5)
        draws = [discrete_sample([0.9, 0.1], rng) for _ in range(5000)]
        assert draws.count(0) / len(draws) == pytest.approx(0.9, abs=0.03)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            discrete_sample([0.0, 0.0], random.Random(1))
