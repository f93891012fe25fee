"""Smoke tests of the ``repro-trace`` CLI."""

import json

import pytest

from repro.obs import cli


def _argv(chrome, jsonl):
    """A tiny healthy run with both export files written."""
    return [
        "srvr1",
        "--servers", "2", "--clients", "3",
        "--warmup", "20", "--measure", "80",
        "--no-faults", "--metrics", "--validate",
        "--chrome", str(chrome), "--jsonl", str(jsonl),
    ]


class TestCli:
    def test_run_reports_and_exports(self, tmp_path, capsys):
        chrome, jsonl = tmp_path / "trace.json", tmp_path / "spans.jsonl"
        assert cli.main(_argv(chrome, jsonl)) == 0
        out = capsys.readouterr().out
        assert "=== srvr1 ===" in out
        assert "digest=" in out
        assert "rps/server" in out
        assert "Chrome trace document is valid" in out
        document = json.loads(chrome.read_text())
        assert document["traceEvents"]
        assert jsonl.read_text().count("\n") > 80

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        logs = []
        for name in ("first", "second"):
            jsonl = tmp_path / f"{name}.jsonl"
            assert cli.main(_argv(tmp_path / f"{name}.json", jsonl)) == 0
            logs.append(jsonl.read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1]

    def test_jobs_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--jobs", "-2"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_unknown_design_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["srvr9"])
        assert excinfo.value.code == 2
        assert "unknown design" in capsys.readouterr().err
