"""Benchmark-harness configuration.

Each ``test_bench_*`` module regenerates one paper table/figure under
pytest-benchmark timing and prints the regenerated rows (run with
``pytest benchmarks/ --benchmark-only -s`` to see them).  Heavy
experiments use ``benchmark.pedantic`` with a single round.

``test_budgets.py`` is the in-run cost budgets of the hot-path layers
and the trace kernel: each bounds a candidate/reference CPU-time ratio
of two runs doing the same work (``python -m pytest
benchmarks/test_budgets.py -q``; CI runs it on every push).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single round (full-pipeline experiments)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def bench_once():
    return run_once
