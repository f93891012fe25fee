"""Sharded serving tiers: shard-count invariance and the engine rule.

The invariance scenarios mirror the repository's overload (EXT-10,
surge through a capped queue) and fail-slow (EXT-12, one gray server)
experiment shapes at reduced scale on the cell-partitioned
``ShardedClusterSimulator`` (full balancer per cell).
"""

import pytest

from repro.cluster.balancer import ClusterSimulator
from repro.cluster.overload import OverloadPolicy, SurgeSchedule
from repro.faults.failslow import FailSlowPlan
from repro.perf import cluster_kernels
from repro.perf.sharded import ShardedClusterSimulator, derive_seed
from repro.platforms.catalog import platform
from repro.workloads.suite import make_workload


def _make_webmail():
    """Module-level workload factory (must be picklable for workers)."""
    return make_workload("webmail")


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_distinct_streams(self):
        seeds = {derive_seed(7, cell, server, stream)
                 for cell in range(4) for server in range(4)
                 for stream in range(2)}
        assert len(seeds) == 32


class TestShardCountInvariance:
    """``shards`` picks worker processes, never the decomposition:
    digests must be identical for 1, 2, and 4 shards."""

    def test_cluster_digest_invariant_surge(self):
        sim = _cluster_sim(arrivals=SurgeSchedule(
            base_rate_rps=600.0,
            surge_multiplier=3.0,
            surge_start_ms=800.0,
            surge_end_ms=1600.0,
        ), overload=OverloadPolicy(queue_cap=32))
        digests = {s: sim.run(shards=s).digest() for s in (1, 2, 4)}
        assert len(set(digests.values())) == 1

    def test_cluster_digest_invariant_failslow(self):
        sim = _cluster_sim(
            failslow=FailSlowPlan.single_slow_node(server=2, factor=5.0),
        )
        digests = {s: sim.run(shards=s).digest() for s in (1, 2, 4)}
        assert len(set(digests.values())) == 1

    def test_cluster_totals_match_across_shards(self):
        sim = _cluster_sim()
        serial = sim.run(shards=1)
        parallel = sim.run(shards=2)
        assert parallel.throughput_rps == serial.throughput_rps
        assert parallel.mean_response_ms == serial.mean_response_ms
        assert parallel.p99_ms == serial.p99_ms


def _cluster_sim(**kwargs):
    return ShardedClusterSimulator(
        platform("desk"),
        _make_webmail,
        servers=8,
        cells=2,
        enclosure_size=4,
        seed=3,
        warmup_ms=300.0,
        measure_ms=1200.0,
        arrivals=kwargs.pop("arrivals", None) or SurgeSchedule(
            base_rate_rps=400.0,
            surge_multiplier=1.0,
            surge_start_ms=0.0,
            surge_end_ms=0.0,
        ),
        **kwargs,
    )


#: Cell configurations the cohort engine serves: steady, surge behind
#: the overload stack, and one fail-slow server.
CELL_CONFIGS = {
    "steady": dict(),
    "surge": dict(
        arrivals=SurgeSchedule(
            base_rate_rps=600.0,
            surge_multiplier=3.0,
            surge_start_ms=800.0,
            surge_end_ms=1600.0,
        ),
        overload=OverloadPolicy(queue_cap=32),
    ),
    "failslow": dict(
        failslow=FailSlowPlan.single_slow_node(server=2, factor=5.0),
    ),
}


class TestCellEngineRule:
    """Cells pick their engine the way a monolithic run does -- cohort
    when eligible -- and the result is bitwise the scalar engine's."""

    @pytest.mark.parametrize("name", sorted(CELL_CONFIGS))
    def test_cells_match_scalar_bitwise(self, name, monkeypatch):
        cohort_runs = []
        run_cohort = cluster_kernels.run_cohort

        def counting_run_cohort(csim):
            cohort_runs.append(csim)
            return run_cohort(csim)

        monkeypatch.setattr(cluster_kernels, "run_cohort", counting_run_cohort)
        default = _cluster_sim(**CELL_CONFIGS[name]).run().digest()
        assert len(cohort_runs) == 2  # one per cell

        monkeypatch.setattr(ClusterSimulator, "run", ClusterSimulator._run_scalar)
        scalar = _cluster_sim(**CELL_CONFIGS[name]).run().digest()
        assert len(cohort_runs) == 2
        assert default == scalar


class TestShardedClusterValidation:
    def test_rejects_remote_memory(self):
        with pytest.raises(ValueError, match="remote_memory"):
            ShardedClusterSimulator(
                platform("desk"), _make_webmail, servers=8,
                enclosure_size=4, remote_memory=object(),
            )

    def test_rejects_noncallable_workload(self):
        with pytest.raises(TypeError, match="workload_factory"):
            ShardedClusterSimulator(
                platform("desk"), make_workload("webmail"), servers=8,
                enclosure_size=4,
            )

    def test_rejects_cells_across_enclosures(self):
        with pytest.raises(ValueError, match="cells"):
            ShardedClusterSimulator(
                platform("desk"), _make_webmail, servers=8,
                enclosure_size=4, cells=3,
            )
