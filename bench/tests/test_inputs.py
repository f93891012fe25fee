"""Inputs are a pure function of the benchmark seed."""

import pytest

from workloads import WORKLOADS, scenario_seeds


def test_scenario_seeds_are_disjoint_across_bench_seeds():
    seen = {}
    for seed in range(0, 50):
        for scenario_seed in scenario_seeds(seed, 6):
            assert seen.setdefault(scenario_seed, seed) == seed


@pytest.mark.parametrize("name", ["scenarios_openloop", "scenarios_faults_traced"])
def test_scenario_inputs_are_deterministic(name, tmp_path):
    from repro.scenario.loader import load_scenario

    workload = WORKLOADS[name]
    for sub in "abc":
        (tmp_path / sub).mkdir()
    first = workload.inputs(7, tmp_path / "a")
    again = workload.inputs(7, tmp_path / "b")
    other = workload.inputs(8, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    seeds = [load_scenario(p).seed for p in first]
    other_seeds = [load_scenario(p).seed for p in other]
    assert set(seeds) == set(scenario_seeds(7, workload.copies))
    assert not set(seeds) & set(other_seeds)
    assert len(first) == len(workload.specs) * workload.copies


def test_paper_config_follows_the_seed(tmp_path):
    workload = WORKLOADS["paper_figures"]
    configs = []
    for seed in (1, 2, 1):
        workload.setup(seed, tmp_path)
        configs.append(workload.config)
    assert configs[0] == configs[2] != configs[1]
    assert configs[1].seed == 2


def test_every_declared_workload_exists():
    import run

    assert [w["name"] for w in run.load_spec()["workloads"]] == list(WORKLOADS)
