"""Verdicts of ``compare.py``."""

import json
from pathlib import Path

import compare

RESULTS = Path(__file__).resolve().parent.parent / "results"


def test_regression_beyond_the_bound():
    assert compare.verdict([10.0, 10.1, 10.2], [11.5, 11.6, 11.7], "lower", 0.1)[0] \
        == "regressed"
    assert compare.verdict([10.0, 10.1, 10.2], [10.5, 10.6, 10.7], "lower", 0.1)[0] \
        == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, [10.0, 10.0, 10.0, 10.0], "lower", 0.1)[0] \
        == "unresolved"


def test_a_gain_needs_ten_runs_a_side():
    a = [10.0 + 0.01 * i for i in range(10)]
    b = [9.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(a, b, "lower", 0.1) == ("improved", 1.0, 0.0)
    assert compare.verdict(a[:3], b[:3], "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(b, a, "higher", 0.2)[0] == "improved"


def test_exact_rows():
    assert compare.exact_verdict(104, 103, "higher", 0.0) == "regressed"
    assert compare.exact_verdict(23.8, 24.2, "lower", 0.5) == "unchanged"
    assert compare.exact_verdict(23.8, 22.0, "lower", 0.5) == "improved"


def test_the_two_reference_runs_agree():
    a, b = (json.loads((RESULTS / name).read_text()) for name in ("seed-a.json", "seed-b.json"))
    spec = json.loads((compare.REPO / "BENCHMARK.json").read_text())
    lines, regressed = compare.compare(a, b, spec)
    assert regressed == 0
    assert not any(" improved " in line for line in lines)
    assert all(" DIFFERENT" not in line for line in lines)
