"""Paper-output goldens: the rendered figure2, table3, figure5 and
validation reports, byte for byte.

The hashes were recorded with the event-at-a-time ServerSimulator engine
(``tests/simulator/reference_server_sim.py``) and the Request-building
samplers (``tests/workloads/reference_*.py``); a change to the DES, the
workload draws, the sweep or the rendering that moves any number fails
here.
"""

import hashlib

import pytest

from repro.experiments.runner import run_experiment
from repro.simulator.server_sim import SimConfig

#: A small fixed protocol, so the four experiments run in seconds.
CONFIG = SimConfig(warmup_requests=100, measure_requests=600, seed=1)

GOLDEN_SHA256 = {
    "figure2": "c32667b180c5dc14c4bb371d1b681e1fd5b87df2977c5e4aa628435bd965c5c6",
    "table3": "bb2d1208d9afda3cf57f0807c2bd4a1d7f96ccca5f1a55a217d2660080a956a9",
    "figure5": "497adaa95a02631b397d1b74edab8f40116173acee516d83967a4dab64c8b2b5",
    "validation": "cdc06e1080e2d3c466298e05e245b6119b2a959cdb416e8b81b58ae022d5a535",
}


@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_rendered_output_is_byte_identical(name):
    text = run_experiment(name, config=CONFIG).render()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256[name]
