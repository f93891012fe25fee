"""EXT-12 grid: its acceptance gate, and parallel fan-out must be
invisible in the results."""

from repro.experiments.failslow import (
    DETECTION,
    FailSlowRunConfig,
    run_failslow_config,
)
from repro.perf.parallel import pmap


def _grid():
    # One config per scenario, shrunk to smoke size and untraced so the
    # whole grid runs in seconds.
    return [
        FailSlowRunConfig(
            design="srvr1",
            scenario=scenario,
            servers=3,
            clients_per_server=3,
            warmup=50,
            measure=250,
            traced=False,
        )
        for scenario in ("healthy", "undetected", "detected")
    ]


class TestParallelDeterminism:
    def test_jobs4_matches_serial_byte_for_byte(self):
        serial = [run_failslow_config(config) for config in _grid()]
        fanned = pmap(run_failslow_config, _grid(), jobs=4)
        assert [p["result"].stream_digest() for p in serial] == [
            p["result"].stream_digest() for p in fanned
        ]
        # The full result objects (reports included) match too, not
        # just the request stream.
        assert [p["result"] for p in serial] == [
            p["result"] for p in fanned
        ]

    def test_detected_scenario_ejects_the_slow_node(self):
        payload = run_failslow_config(_grid()[2])
        report = payload["result"].failslow_report
        assert report.drifting_servers == [0]
        assert report.ejections >= 1
        assert DETECTION.adaptive_timeout is not None
        assert report.last_adaptive_timeout_ms is not None


def test_detection_closes_half_the_p99_gap():
    """EXT-12's acceptance gate at the default cluster size, untraced
    and shortened to 900 measured completions: the undetected slow node
    at least doubles srvr1's p99, and detection ejects it and closes at
    least half of the gap."""
    runs = {
        scenario: run_failslow_config(
            FailSlowRunConfig(design="srvr1", scenario=scenario,
                              measure=900, traced=False)
        )["result"]
        for scenario in ("healthy", "undetected", "detected")
    }
    healthy, undetected, detected = (
        runs[s].p99_ms for s in ("healthy", "undetected", "detected"))
    assert undetected >= 2.0 * healthy
    assert (undetected - detected) / (undetected - healthy) >= 0.5
    assert runs["detected"].failslow_report.ejections >= 1
