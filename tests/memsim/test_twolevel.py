"""Tests of the two-level memory simulator and slowdown model."""

import pytest

from repro.memsim.trace import WORKLOAD_TRACES, PageTraceSpec
from repro.memsim.twolevel import (
    CBF_PAGE_LATENCY_US,
    PCIE_X4_PAGE_LATENCY_US,
    TwoLevelMemorySimulator,
    slowdown_fraction,
)

_FAST_TRACE = 80_000


class TestSlowdownFraction:
    def test_formula(self):
        # 50 touches/ms * 10% misses * 4 us = 2% slowdown.
        assert slowdown_fraction(0.1, 50.0, 4.0) == pytest.approx(0.02)

    def test_cbf_is_cheaper_than_pcie(self):
        assert CBF_PAGE_LATENCY_US < PCIE_X4_PAGE_LATENCY_US

    def test_validation(self):
        with pytest.raises(ValueError):
            slowdown_fraction(1.5, 10.0, 4.0)
        with pytest.raises(ValueError):
            slowdown_fraction(0.5, -1.0, 4.0)


class TestTwoLevelSimulator:
    def test_full_local_memory_never_misses_after_warmup(self):
        spec = WORKLOAD_TRACES["webmail"]
        sim = TwoLevelMemorySimulator(spec, local_fraction=1.0)
        stats = sim.run(_FAST_TRACE)
        assert stats.miss_rate == 0.0

    def test_miss_rate_decreases_with_local_fraction(self):
        spec = WORKLOAD_TRACES["websearch"]
        rates = [
            TwoLevelMemorySimulator(spec, f).run(_FAST_TRACE).miss_rate
            for f in (0.125, 0.25, 0.5)
        ]
        assert rates[0] > rates[1] > rates[2]

    def test_lru_beats_random_on_skewed_traces(self):
        spec = PageTraceSpec(
            "skewed", footprint_pages=8192, zipf_alpha=1.3,
            sequential_fraction=0.0, touches_per_ms=10.0,
        )
        lru = TwoLevelMemorySimulator(spec, 0.25, policy="lru").run(_FAST_TRACE)
        rnd = TwoLevelMemorySimulator(spec, 0.25, policy="random").run(_FAST_TRACE)
        assert lru.miss_rate <= rnd.miss_rate * 1.05

    def test_policies_are_close_overall(self):
        """Paper: 'LRU results are nearly the same' as random."""
        spec = WORKLOAD_TRACES["websearch"]
        lru = TwoLevelMemorySimulator(spec, 0.25, policy="lru").run(_FAST_TRACE)
        rnd = TwoLevelMemorySimulator(spec, 0.25, policy="random").run(_FAST_TRACE)
        assert lru.miss_rate == pytest.approx(rnd.miss_rate, abs=0.1)

    def test_slowdown_uses_spec_touch_rate(self):
        spec = WORKLOAD_TRACES["webmail"]
        sim = TwoLevelMemorySimulator(spec, 0.25)
        stats = sim.run(_FAST_TRACE)
        expected = slowdown_fraction(
            stats.miss_rate, spec.touches_per_ms, PCIE_X4_PAGE_LATENCY_US
        )
        assert sim.slowdown(PCIE_X4_PAGE_LATENCY_US, _FAST_TRACE) == pytest.approx(
            expected
        )

    def test_local_fraction_validation(self):
        spec = WORKLOAD_TRACES["webmail"]
        with pytest.raises(ValueError):
            TwoLevelMemorySimulator(spec, 0.0)
        with pytest.raises(ValueError):
            TwoLevelMemorySimulator(spec, 1.5)

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="'fifo'"):
            TwoLevelMemorySimulator(WORKLOAD_TRACES["webmail"], 0.25, policy="fifo")


class TestPaperFigure4b:
    """Shape of Figure 4(b) at 25% local, random replacement, PCIe 4us."""

    @pytest.fixture(scope="class")
    def slowdowns(self):
        out = {}
        for name, spec in WORKLOAD_TRACES.items():
            sim = TwoLevelMemorySimulator(spec, 0.25, policy="random")
            out[name] = sim.slowdown(PCIE_X4_PAGE_LATENCY_US)
        return out

    def test_websearch_has_largest_slowdown(self, slowdowns):
        assert slowdowns["websearch"] == max(slowdowns.values())

    def test_all_slowdowns_under_ten_percent(self, slowdowns):
        assert all(s < 0.10 for s in slowdowns.values())

    def test_webmail_and_wc_nearly_unaffected(self, slowdowns):
        assert slowdowns["webmail"] < 0.005
        assert slowdowns["mapred-wc"] < 0.01

    def test_values_near_paper(self, slowdowns):
        paper = {
            "websearch": 0.047,
            "webmail": 0.001,
            "ytube": 0.014,
            "mapred-wc": 0.002,
            "mapred-wr": 0.007,
        }
        for name, expected in paper.items():
            assert slowdowns[name] == pytest.approx(expected, abs=0.012), name
