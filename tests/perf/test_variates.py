"""The fast sampler must be bit-identical to ``random.expovariate``."""

import random

from tests.perf.variates import exponential_sampler


class TestExponentialSampler:
    def test_stream_identical_to_expovariate(self):
        reference = random.Random(42)
        fast = random.Random(42)
        sample = exponential_sampler(fast)
        for lambd in (0.5, 1.0, 3.25, 0.001):
            for _ in range(200):
                assert sample(lambd) == reference.expovariate(lambd)

    def test_interleaved_consumers_unperturbed(self):
        # The sampler consumes exactly one uniform per draw, so other
        # consumers of the same generator see an unchanged stream.
        reference = random.Random(7)
        shared = random.Random(7)
        sample = exponential_sampler(shared)
        for _ in range(100):
            assert sample(2.0) == reference.expovariate(2.0)
            assert shared.random() == reference.random()
            assert shared.randrange(10) == reference.randrange(10)
