"""Tests (incl. property-based) of the page-trace generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.trace import (
    PageTraceSpec,
    WORKLOAD_TRACES,
    cached_trace,
    generate_trace,
)
from tests.memsim.reference_trace import reference_trace

#: The trace length every experiment replays: eight footprint passes.
_PASSES = 8


def _spec(**kw):
    defaults = dict(
        name="t",
        footprint_pages=4096,
        zipf_alpha=1.0,
        sequential_fraction=0.2,
        touches_per_ms=10.0,
    )
    defaults.update(kw)
    return PageTraceSpec(**defaults)


class TestWorkloadTraces:
    def test_all_five_benchmarks_have_specs(self):
        assert set(WORKLOAD_TRACES) == {
            "websearch", "webmail", "ytube", "mapred-wc", "mapred-wr",
        }

    def test_websearch_and_ytube_have_largest_footprints(self):
        """Paper: these two have the largest memory usage."""
        footprints = {n: s.footprint_pages for n, s in WORKLOAD_TRACES.items()}
        largest = max(footprints.values())
        assert footprints["websearch"] == largest
        assert footprints["ytube"] == largest


class TestGenerateTrace:
    def test_length_and_range(self):
        spec = _spec()
        trace = generate_trace(spec, 10_000, seed=1)
        assert len(trace) == 10_000
        assert trace.min() >= 0
        assert trace.max() < spec.footprint_pages

    def test_deterministic_by_seed(self):
        spec = _spec()
        a = generate_trace(spec, 5000, seed=7)
        b = generate_trace(spec, 5000, seed=7)
        assert np.array_equal(a, b)
        c = generate_trace(spec, 5000, seed=8)
        assert not np.array_equal(a, c)

    def test_zipf_skew_visible(self):
        spec = _spec(zipf_alpha=1.2, sequential_fraction=0.0)
        trace = generate_trace(spec, 50_000, seed=2)
        _, counts = np.unique(trace, return_counts=True)
        counts.sort()
        # The hottest page gets far more than the median page.
        assert counts[-1] > 10 * max(counts[len(counts) // 2], 1)

    def test_sequential_runs_present(self):
        spec = _spec(sequential_fraction=1.0)
        trace = generate_trace(spec, 2048, seed=3)
        # Widen first: a difference of uint16 ids wraps at 2**16.
        diffs = np.diff(trace.astype(np.int64))
        consecutive = np.mean((diffs == 1) | (diffs == 1 - spec.footprint_pages))
        assert consecutive > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace(_spec(), 0)
        with pytest.raises(ValueError):
            _spec(footprint_pages=0)
        with pytest.raises(ValueError):
            _spec(sequential_fraction=1.5)
        with pytest.raises(ValueError):
            _spec(touches_per_ms=0.0)
        with pytest.raises(ValueError):
            _spec(run_length=0)

    @given(
        footprint=st.integers(min_value=16, max_value=4096),
        alpha=st.floats(min_value=0.0, max_value=2.0),
        seq=st.floats(min_value=0.0, max_value=1.0),
        length=st.integers(min_value=1, max_value=5000),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_parameters_yield_valid_trace(self, footprint, alpha, seq, length, seed):
        spec = _spec(
            footprint_pages=footprint, zipf_alpha=alpha, sequential_fraction=seq
        )
        trace = generate_trace(spec, length, seed=seed)
        assert len(trace) == length
        assert (trace >= 0).all() and (trace < footprint).all()
        assert np.array_equal(trace, reference_trace(spec, length, seed=seed))


class TestCompactTrace:
    """Page ids at their natural width, equal to the full-width oracle."""

    @pytest.mark.parametrize("name", sorted(WORKLOAD_TRACES))
    def test_shipped_traces_equal_the_oracle(self, name):
        spec = WORKLOAD_TRACES[name]
        length = _PASSES * spec.footprint_pages
        assert np.array_equal(
            generate_trace(spec, length), reference_trace(spec, length)
        )

    @pytest.mark.parametrize(
        "length, seed",
        [(12_345, 7), (65_535, 3), (65_536, 1), (65_537, 2), (200_001, 11)],
    )
    def test_lengths_off_the_block_size_equal_the_oracle(self, length, seed):
        """The Zipf draws come in 65,536-sample blocks; a partial last
        block, an exact one and one sample over draw the same stream."""
        for spec in (WORKLOAD_TRACES["ytube"], _spec(sequential_fraction=0.0)):
            assert np.array_equal(
                generate_trace(spec, length, seed=seed),
                reference_trace(spec, length, seed=seed),
            )

    @pytest.mark.parametrize("name", sorted(WORKLOAD_TRACES))
    def test_shipped_cached_traces_hold_two_bytes_a_page(self, name):
        spec = WORKLOAD_TRACES[name]
        length = _PASSES * spec.footprint_pages
        trace = cached_trace(spec, length)
        assert trace.dtype == np.uint16
        assert trace.nbytes == 2 * length

    @pytest.mark.parametrize(
        "footprint, dtype",
        [(256, np.uint8), (257, np.uint16), (65_536, np.uint16),
         (65_537, np.uint32)],
    )
    def test_dtype_is_the_narrowest_that_holds_the_footprint(
        self, footprint, dtype
    ):
        spec = _spec(footprint_pages=footprint)
        trace = generate_trace(spec, 4 * footprint, seed=5)
        assert trace.dtype == dtype
        # Ids reach the top of the range without wrapping.
        assert int(trace.max()) == footprint - 1
        assert np.array_equal(trace, reference_trace(spec, 4 * footprint, seed=5))
