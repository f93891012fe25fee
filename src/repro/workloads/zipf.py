"""Bounded Zipf sampling.

The paper's workloads lean on Zipf distributions twice: websearch query
keywords follow a Zipf distribution of indexed-word frequency (after Xie
and O'Hallaron), and ytube video popularity follows a Zipf distribution
(after Gill et al.'s YouTube edge traces).

:class:`ZipfSampler` draws ranks from a bounded Zipf distribution with
O(1) sampling using the cumulative-inverse method on a precomputed CDF.
"""

from __future__ import annotations

import bisect
import random
from typing import List


def zipf_weights(n: int, alpha: float) -> List[float]:
    """Unnormalized Zipf weights ``1 / rank**alpha`` for ranks 1..n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return [1.0 / (rank ** alpha) for rank in range(1, n + 1)]


class ZipfSampler:
    """Samples 0-based ranks from a bounded Zipf(alpha) distribution.

    Rank 0 is the most popular item.  ``alpha`` around 0.8-1.0 matches
    observed search-keyword and video-popularity skew.
    """

    def __init__(self, n: int, alpha: float):
        weights = zipf_weights(n, alpha)
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        # Guard against floating-point shortfall at the tail: the final
        # cumulative value must be exactly 1.0 so no draw falls past it.
        self._cdf[-1] = 1.0
        self.n = n
        self.alpha = alpha

    def sample(self, rng: random.Random) -> int:
        """Draw one rank in ``[0, n)``."""
        # Intermediate cumulative values can exceed later ones' float
        # round-off; clamp so a draw just under 1.0 can never land at n.
        return min(bisect.bisect_left(self._cdf, rng.random()), self.n - 1)

    def head_mass(self, k: int) -> float:
        """Total probability of the ``k`` most popular items.

        Used for cache-hit-rate modelling: if the ``k`` hottest objects fit
        in a cache, ``head_mass(k)`` is the expected hit rate under
        independent-reference assumptions.
        """
        if k <= 0:
            return 0.0
        return self._cdf[min(k, self.n) - 1]
