"""Structural tests of the websearch query model."""

import random

import pytest

from repro.workloads.websearch import (
    CACHED_TERM_FRACTION,
    KEYWORD_COUNT_DIST,
    QOS,
    make_websearch,
)


@pytest.fixture(scope="module")
def workload():
    return make_websearch()


class TestWebsearch:
    def test_qos_matches_paper(self):
        assert QOS.limit_ms == 500.0
        assert QOS.percentile == 0.95

    def test_keyword_distribution_sums_to_one(self):
        assert sum(p for _, p in KEYWORD_COUNT_DIST) == pytest.approx(1.0)

    def test_query_kinds_encode_keyword_count(self, workload):
        rng = random.Random(1)
        kinds = {workload.sample(rng).kind for _ in range(400)}
        assert kinds <= {f"query-{k}kw" for k, _ in KEYWORD_COUNT_DIST}
        assert "query-1kw" in kinds and "query-2kw" in kinds

    def test_parallelism_tracks_keywords(self, workload):
        rng = random.Random(2)
        for _ in range(200):
            r = workload.sample(rng)
            keywords = int(r.kind.split("-")[1][0])
            assert r.demand.cpu_parallelism == keywords

    def test_many_queries_hit_only_cached_terms(self, workload):
        """25% of index terms are cached; popular (Zipf head) terms
        dominate, so a large share of queries needs no disk I/O."""
        rng = random.Random(3)
        no_disk = sum(
            1 for _ in range(2000) if workload.sample(rng).demand.disk_bytes == 0.0
        )
        assert no_disk / 2000 > 0.5

    def test_cached_fraction_is_papers(self):
        assert CACHED_TERM_FRACTION == 0.25

    def test_more_keywords_means_more_cpu_on_average(self, workload):
        rng = random.Random(4)
        by_kind = {}
        for _ in range(4000):
            r = workload.sample(rng)
            by_kind.setdefault(r.kind, []).append(r.demand.cpu_ms_ref)
        mean_1 = sum(by_kind["query-1kw"]) / len(by_kind["query-1kw"])
        mean_4 = sum(by_kind["query-4kw"]) / len(by_kind["query-4kw"])
        assert mean_4 > 2 * mean_1

    def test_profile_flags(self, workload):
        p = workload.profile
        assert p.cache_sensitivity > 0
        assert 0 < p.stall_fraction < 1
        assert p.think_time_ms > 0
        assert p.qos is not None

