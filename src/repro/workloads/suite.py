"""The benchmark-suite registry (paper Table 1).

Maps benchmark names to factories.  The five measured benchmarks are the
four workloads of Table 1 with mapreduce split into its two applications,
matching the five rows of Figure 2(c).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

from repro.workloads.base import Workload
from repro.workloads.mapreduce import make_mapred_wc, make_mapred_wr
from repro.workloads.webmail import make_webmail
from repro.workloads.websearch import make_websearch
from repro.workloads.ytube import make_ytube

#: Benchmark factories in the paper's Figure 2(c) row order.
BENCHMARK_SUITE: Dict[str, Callable[[], Workload]] = {
    "websearch": make_websearch,
    "webmail": make_webmail,
    "ytube": make_ytube,
    "mapred-wc": make_mapred_wc,
    "mapred-wr": make_mapred_wr,
}


def benchmark_names() -> List[str]:
    """Benchmark names in the paper's reporting order."""
    return list(BENCHMARK_SUITE)


@lru_cache(maxsize=None)
def make_workload(name: str) -> Workload:
    """The named benchmark, built and calibrated once per process.

    Every caller shares the instance and must treat it as read-only;
    ``BENCHMARK_SUITE[name]()`` builds a private copy.
    """
    try:
        factory = BENCHMARK_SUITE[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {list(BENCHMARK_SUITE)}"
        ) from exc
    return factory()
