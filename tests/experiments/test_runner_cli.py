"""Tests of the experiments CLI."""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.runner import _EXPERIMENTS, main, run_experiment

#: The committed ``repro-experiments --all`` rendering.
ALL_EXPERIMENTS = Path(__file__).resolve().parents[2] / "results" / "all_experiments.txt"


class TestCli:
    def test_list_prints_registry(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(_EXPERIMENTS)

    def test_committed_report_has_one_id_per_experiment(self):
        ids = re.findall(r"^=== (\S+): ", ALL_EXPERIMENTS.read_text(), re.MULTILINE)
        assert len(ids) == len(_EXPERIMENTS) == 23
        assert [i for i, count in Counter(ids).items() if count > 1] == []

    def test_no_args_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_runs_named_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "srvr1" in out

    def test_unknown_experiment_raises(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure99"])
        assert excinfo.value.code == 2
        assert "figure99" in capsys.readouterr().err
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_unknown_name_is_rejected_before_any_experiment_runs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "nosuch"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "nosuch" in captured.err
        assert "table1" in captured.err  # the known names are listed
        assert captured.out == ""  # table1 never ran

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert main(["figure1", "--output", str(target)]) == 0
        capsys.readouterr()
        text = target.read_text()
        assert "Cost models" in text
        assert "$5,756" in text or "5,756" in text

    def test_analytic_method_flag(self, capsys):
        assert main(["figure2", "--method", "analytic"]) == 0
        assert "Perf/TCO-$" in capsys.readouterr().out
