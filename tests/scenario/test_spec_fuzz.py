"""Fuzz the spec path with malformed values.

Each library spec is encoded with ``scenario_to_dict``, one drawn
path's value is replaced by a malformed one, and the result must either
fail validation -- only :class:`ScenarioValidationError`, every issue
with a path -- or still lower with ``compile_scenario`` and build the
``ClusterSimulator`` of every compiled plan (construction only, no
run), so a value that validates but cannot be built fails here.
Magnitudes stay small: a valid but huge ``trace_length`` is only slow.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (
    LIBRARY,
    ScenarioValidationError,
    compile_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenario.compiler import _build_cluster_simulator

MALFORMED = st.one_of(
    st.sampled_from([
        None, -1, 0, 0.5, True, [], {}, [1], {"a": 1}, math.nan, math.inf,
    ]),
    st.text(max_size=8),
)


def _paths(node, prefix=()):
    """Every key path into a nested dict/list encoding."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(data, path, value):
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_malformed_value_is_rejected_or_compiles(name):
    encoded = scenario_to_dict(LIBRARY[name]())
    paths = list(_paths(encoded))

    @settings(max_examples=60, deadline=None, database=None)
    @given(path=st.sampled_from(paths), value=MALFORMED)
    def check(path, value):
        data = _replaced(encoded, path, value)
        try:
            scenario = scenario_from_dict(data)
        except ScenarioValidationError as exc:
            assert exc.issues
            assert all(issue.path for issue in exc.issues)
        else:
            for plan in compile_scenario(scenario, quick=True).plans:
                _build_cluster_simulator(plan)

    check()
