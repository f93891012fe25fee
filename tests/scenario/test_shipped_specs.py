"""The shipped scenario specs: pinned outputs.

Each spec's ``--quick`` ``result.json`` digest, and the bytes of EXT-11's
trace exports, are pinned at values recorded before the closed loop,
remote memory, disk specs, tracing and faults moved onto the cohort
engine: moving a run between engines must not change what it reports.
CI's ``scenario-smoke`` job pins the full-length runs the same way
(``--expect-digest``).
"""

import hashlib
import json
import pathlib

import pytest

from repro.scenario.cli import main

REPO = pathlib.Path(__file__).parents[2]

#: Spec file -> the scenario digest of its ``--quick`` run.
QUICK_DIGESTS = {
    "examples/scenarios/ext8_availability.yaml":
        "b4bc23327e809616ba61aff42bc07661a5ce8357655a855cd088be545a4ad906",
    "examples/scenarios/ext10_overload.yaml":
        "76a4606edba8f03e6f36a6f7de7927c56b9e6ecd1c0630a3193e178d3510b8fe",
    "examples/scenarios/ext11_trace_attribution.yaml":
        "7024ca9f2f77405308885a2c584d0e20cbc79f5705fa19d675f6f07691a12886",
    "examples/multirack_diurnal.yaml":
        "9da1ec9dd63094fb530917517f502d12b5e11cb0a4cb5d27f5a642aa1419a8b6",
}

#: sha256 of the trace exports of EXT-11's ``--quick`` run.
EXT11_EXPORTS = {
    "spans.jsonl":
        "c41622446a3ee886f3143895e753ba87784c4b8e3efa3875c1689c94b745027f",
    "trace.json":
        "615756c4b96e40872caaea85b7549a76bbb8a9c42c06355667719742c055fd6b",
}


@pytest.fixture(scope="module", autouse=True)
def _yaml():
    pytest.importorskip("yaml")


@pytest.mark.parametrize("spec", sorted(QUICK_DIGESTS))
def test_quick_run_digest_is_pinned(spec, tmp_path, capsys):
    assert main(["run", str(REPO / spec), "--quick", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["digest"] == QUICK_DIGESTS[spec]
    if spec.endswith("ext11_trace_attribution.yaml"):
        for name, expected in EXT11_EXPORTS.items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == expected, name
