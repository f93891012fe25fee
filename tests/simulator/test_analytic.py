"""Tests of the MVA model, including DES cross-validation."""

import pytest

from repro.simulator.analytic import AnalyticServerModel, mva_throughput
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.suite import make_workload


def bottleneck(model: AnalyticServerModel) -> str:
    """Name of the station with the highest per-server demand."""
    names = ["cpu", "mem", "disk", "nic"]
    demands = model.service_demands()
    per_server = [d / s for d, s in demands]
    return names[per_server.index(max(per_server))]


class TestMvaThroughput:
    def test_single_station_saturates_at_capacity(self):
        # One server, 10 ms demand: X -> 0.1/ms as N grows.
        assert mva_throughput([(10.0, 1)], 100) == pytest.approx(0.1, rel=1e-3)

    def test_multi_server_capacity(self):
        assert mva_throughput([(10.0, 4)], 400) == pytest.approx(0.4, rel=1e-2)

    def test_single_client_sees_raw_demands(self):
        # N=1: X = 1/(D1 + D2 + Z).
        x = mva_throughput([(5.0, 1), (3.0, 1)], 1, think_ms=2.0)
        assert x == pytest.approx(1.0 / 10.0)

    def test_bottleneck_governs_saturation(self):
        x = mva_throughput([(10.0, 1), (2.0, 1)], 200)
        assert x == pytest.approx(0.1, rel=1e-2)

    def test_think_time_delays_low_population(self):
        slow = mva_throughput([(1.0, 1)], 5, think_ms=99.0)
        assert slow == pytest.approx(5 / 100.0, rel=0.05)

    def test_throughput_monotone_in_population(self):
        xs = [mva_throughput([(10.0, 2), (4.0, 1)], n) for n in (1, 2, 4, 8, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(xs, xs[1:]))

    def test_zero_demand_stations_ignored(self):
        assert mva_throughput([(0.0, 1), (5.0, 1)], 50) == pytest.approx(0.2, rel=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            mva_throughput([(1.0, 1)], 0)
        with pytest.raises(ValueError):
            mva_throughput([(-1.0, 1)], 1)
        with pytest.raises(ValueError):
            mva_throughput([(1.0, 1)], 1, think_ms=-1.0)


class TestAnalyticServerModel:
    def test_bottleneck_identification(self, srvr1, emb1):
        assert bottleneck(AnalyticServerModel(srvr1, make_workload("websearch"))) in (
            "mem",
            "cpu",
        )
        assert bottleneck(AnalyticServerModel(emb1, make_workload("webmail"))) == "cpu"

    def test_saturation_bounds_closed_loop(self, emb1):
        model = AnalyticServerModel(emb1, make_workload("websearch"))
        assert model.throughput_rps(population=400) <= model.saturation_rps() * 1.001

    def test_disk_override_changes_disk_station(self, emb1):
        base = AnalyticServerModel(emb1, make_workload("mapred-wc"))
        slow = AnalyticServerModel(
            emb1, make_workload("mapred-wc"), disk_service_ms=1e4
        )
        assert slow.throughput_rps() < base.throughput_rps()
        assert bottleneck(slow) == "disk"

    def test_cpu_multiplier_slows_cpu_bound_workloads(self, emb1):
        base = AnalyticServerModel(emb1, make_workload("webmail"))
        slowed = AnalyticServerModel(
            emb1, make_workload("webmail"), cpu_multiplier=1.5
        )
        assert slowed.throughput_rps() < base.throughput_rps()

    @pytest.mark.parametrize("bench", ["webmail", "mapred-wc"])
    def test_des_and_mva_agree_at_saturation(self, emb1, bench):
        """The DES and MVA model the same network; at a saturating
        population their throughputs agree within ~12%."""
        workload = make_workload(bench)
        population = 48
        mva = AnalyticServerModel(emb1, workload).throughput_rps(population)
        des = (
            ServerSimulator(
                emb1,
                workload,
                population=population,
                config=SimConfig(warmup_requests=200, measure_requests=1500, seed=3),
            )
            .run()
            .throughput_rps
        )
        assert des == pytest.approx(mva, rel=0.12)
