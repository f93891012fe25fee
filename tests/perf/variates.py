"""Reference oracles' fast exponential sampler.

This is ``repro.perf.variates`` as it stood when its last callers in
``repro`` -- the scalar cluster engine and the event-at-a-time
``ServerSimulator`` engines -- became the oracles under ``tests/``; the
package's engines inline the same ``-log(1 - random()) / rate`` draw.
The rest of this docstring is the original module's.

Fast random-variate sampling for the DES hot paths.

``random.Random.expovariate`` is a pure-Python method, so every arrival,
think-time, and service draw pays a Python call plus attribute lookups on
top of the one C-level ``random()`` call it actually needs.
:func:`exponential_sampler` is a closure over a *shared* generator's
bound ``random()``, bit-identical to ``expovariate`` for the same
underlying uniform stream.  It consumes exactly one uniform per draw at
the call site, so it can replace ``rng.expovariate`` in code that
interleaves draws with other consumers of the same generator without
perturbing the stream (results stay identical to the naive code).
"""

from __future__ import annotations

import random
from math import log
from typing import Callable


def exponential_sampler(rng: random.Random) -> Callable[[float], float]:
    """A drop-in, stream-identical fast path for ``rng.expovariate``.

    Returns ``sample(lambd)`` producing the same values, in the same
    order, from the same generator state as ``rng.expovariate(lambd)``
    -- it inlines CPython's implementation (``-log(1 - random())/lambd``)
    into a closure so each draw is one C ``random()`` call plus inline
    arithmetic rather than a method dispatch.
    """
    _random = rng.random

    def sample(lambd: float, _log=log) -> float:
        return -_log(1.0 - _random()) / lambd

    return sample
