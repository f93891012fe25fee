"""The full-width page-trace generator: the oracle of ``generate_trace``.

:func:`reference_trace` builds the trace the straightforward way: the
whole Zipf component as one float64 draw and one int64 lookup, each
sequential run as its own ``arange``, and the result as int64.
:func:`repro.memsim.trace.generate_trace` builds it in the narrowest
unsigned dtype that holds the footprint, drawing the Zipf component in
fixed-size blocks; every page id it returns must equal this one's
(``tests/memsim/test_trace.py``).
"""

from __future__ import annotations

import numpy as np

from repro.memsim.trace import PageTraceSpec


def reference_trace(
    spec: PageTraceSpec, length: int, seed: int = 0
) -> np.ndarray:
    """Generate ``length`` page accesses (page ids in ``[0, footprint)``)."""
    if length <= 0:
        raise ValueError("trace length must be positive")
    rng = np.random.default_rng(seed)
    n = spec.footprint_pages

    # Zipf reuse component: inverse-CDF sampling over ranks.
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-spec.zipf_alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    # Fixed permutation rank -> page id (hot pages spread over the space).
    permutation = np.random.default_rng(12345).permutation(n)

    seq_accesses = int(length * spec.sequential_fraction)
    zipf_accesses = length - seq_accesses

    zipf_pages = permutation[np.searchsorted(cdf, rng.random(zipf_accesses))]

    # Sequential scans: runs of consecutive pages at random offsets.
    runs = max(1, -(-seq_accesses // spec.run_length))
    starts = rng.integers(0, n, size=runs)
    seq_parts = [
        (start + np.arange(spec.run_length)) % n for start in starts
    ]
    seq_pages = np.concatenate(seq_parts)[:seq_accesses] if seq_accesses else (
        np.empty(0, dtype=np.int64)
    )

    # Interleave: shuffle scan runs into the reuse stream at block level.
    trace = np.empty(length, dtype=np.int64)
    mask = np.zeros(length, dtype=bool)
    if seq_accesses:
        positions = rng.choice(length, size=seq_accesses, replace=False)
        mask[positions] = True
        trace[mask] = seq_pages
    trace[~mask] = zipf_pages
    return trace
