"""Acceptance: parallel fan-out is bit-identical to the serial runner.

Runs figure5, availability, and overload serially and with ``jobs=4``
(shrunk via overrides to keep the suite fast) and compares the full
``ExperimentResult`` payload digests.  This is the contract that makes
``--jobs N`` safe to use for paper reproduction: parallelism may change
wall-clock, never numbers.
"""

from repro.perf.parallel import run_experiments
from tests.perf import payload_digest

NAMES = ["figure5", "availability", "overload"]

#: Shrunk workloads -- full-size runs take minutes; determinism is a
#: property of the code path, not the problem size.
OVERRIDES = {
    "availability": dict(servers=3, clients_per_server=3, warmup=50, measure=300),
    "overload": dict(
        servers=2,
        warmup_ms=500.0,
        surge_start_ms=1500.0,
        surge_end_ms=2500.0,
        measure_ms=5000.0,
    ),
}


def test_parallel_matches_serial_digest():
    serial = run_experiments(NAMES, method="analytic", jobs=1, overrides=OVERRIDES)
    parallel = run_experiments(NAMES, method="analytic", jobs=4, overrides=OVERRIDES)
    assert [name for name, _ in parallel] == NAMES
    for (name, a), (_, b) in zip(serial, parallel):
        assert payload_digest(a) == payload_digest(b), f"{name} diverged under --jobs 4"
