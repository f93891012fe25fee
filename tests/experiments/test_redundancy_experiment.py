"""EXT-13 grid: its acceptance gate, and parallel fan-out must be
invisible in the results."""

from repro.experiments.redundancy import (
    RedundancyRunConfig,
    run_redundancy_config,
)
from repro.perf.parallel import pmap


def _grid():
    # One config per arm, shrunk to smoke size and untraced so the
    # whole grid runs in seconds.
    arms = [
        ("baseline", "unprotected"),
        ("healthy", "replica"),
        ("storm", "replica"),
        ("storm", "unprotected"),
        ("rolling", "replica"),
    ]
    return [
        RedundancyRunConfig(
            scenario=scenario,
            policy=policy,
            servers=3,
            clients_per_server=4,
            warmup=50,
            measure=300,
            traced=False,
        )
        for scenario, policy in arms
    ]


class TestParallelDeterminism:
    def test_jobs4_matches_serial_byte_for_byte(self):
        serial = [run_redundancy_config(config) for config in _grid()]
        fanned = pmap(run_redundancy_config, _grid(), jobs=4)
        assert [p["result"].stream_digest() for p in serial] == [
            p["result"].stream_digest() for p in fanned
        ]
        # The full result objects (recovery reports included) match
        # too, not just the request stream.
        assert [p["result"] for p in serial] == [
            p["result"] for p in fanned
        ]

    def test_healthy_protection_matches_baseline_stream(self):
        grid = _grid()
        baseline = run_redundancy_config(grid[0])
        healthy = run_redundancy_config(grid[1])
        assert (
            baseline["result"].stream_digest()
            == healthy["result"].stream_digest()
        )

    def test_storm_arm_rebuilds_without_loss(self):
        payload = run_redundancy_config(_grid()[2])
        report = payload["result"].recovery_report
        assert report.blade_failures >= 1
        assert report.pages_rebuilt > 0
        assert report.audit.conserved
        assert not report.data_loss


def test_replicas_ride_through_a_blade_storm():
    """EXT-13's acceptance gate at the default cluster size, untraced
    and shortened to 900 measured completions: a healthy protected run
    is stream-identical to the unprotected one, 2-replica N2 keeps at
    least 90% of healthy goodput through a blade failure, replica and
    parity lose and duplicate no page and rebuild after repair, and the
    unprotected arm shows the local-paging p99 cliff."""
    runs = {
        key: run_redundancy_config(
            RedundancyRunConfig(scenario=scenario, policy=policy,
                                measure=900, traced=False)
        )["result"]
        for key, scenario, policy in (
            ("baseline", "baseline", "unprotected"),
            ("healthy-on", "healthy", "replica"),
            ("unprotected", "storm", "unprotected"),
            ("replica", "storm", "replica"),
            ("parity", "storm", "parity"),
        )
    }
    base = runs["baseline"]
    assert runs["healthy-on"].stream_digest() == base.stream_digest()
    assert runs["replica"].goodput_rps >= 0.90 * base.goodput_rps
    for name in ("replica", "parity"):
        report = runs[name].recovery_report
        assert report.audit is not None and report.audit.conserved
        assert (report.audit.lost, report.audit.duplicated) == (0, 0)
        assert report.pages_rebuilt > 0
    assert runs["unprotected"].p99_ms >= 1.2 * base.p99_ms
