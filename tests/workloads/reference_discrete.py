"""Reference oracles' weighted index sampler.

This is ``repro.workloads.zipf.discrete_sample`` as it stood when its
last caller in ``repro`` -- webmail's action draw -- inlined the same
scan, as websearch's keyword-count draw had before it.  The reference
samplers under ``tests/workloads/`` still call it.
"""

from __future__ import annotations

import random
from typing import Sequence


def discrete_sample(weights: Sequence[float], rng: random.Random) -> int:
    """Sample an index proportional to ``weights`` (linear scan; small n)."""
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must have positive sum")
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1
