"""Hot-path records must stay dict-free: a slotted record is smaller and
cheaper to allocate than the dict it replaced."""

import random

import pytest

from repro.cluster.engine import _Clock, _Link, _Srv, _St
from repro.cluster.overload import (
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
    RetryBudget,
    RetryBudgetPolicy,
    TokenBucket,
)
from repro.simulator.telemetry import TimeSeries
from tests.cluster.reference_balancer import _Attempt, _RequestState


class TestEngineRecords:
    def test_all_slotted(self):
        instances = [
            _Srv(index=0, disk_model=None),
            _St(measuring=False, t0=0.0, t1=0.0),
            _Clock(),
            _Link(),
        ]
        for obj in instances:
            with pytest.raises(AttributeError):
                obj.__dict__


class TestBalancerRecords:
    """The scalar oracle's records: the speedup budgets time against it."""

    def test_request_state_has_no_dict(self):
        rs = _RequestState(demand=1.5, start=0.0)
        with pytest.raises(AttributeError):
            rs.__dict__
        with pytest.raises(AttributeError):
            rs.unknown_field = 1

    def test_attempt_has_no_dict(self):
        attempt = _Attempt(server=None, epoch=0, probe=False)
        with pytest.raises(AttributeError):
            attempt.__dict__
        assert attempt.timer == 0 and attempt.hedge_timer == 0
        assert not attempt.void and not attempt.done


class TestOverloadRecords:
    def test_all_slotted(self):
        instances = [
            TokenBucket(rate_per_s=10.0, burst=5.0),
            AdmissionController(AdmissionPolicy(), slo_ms=100.0, rng=random.Random(1)),
            RetryBudget(RetryBudgetPolicy()),
            CircuitBreaker(BreakerPolicy()),
        ]
        for obj in instances:
            with pytest.raises(AttributeError):
                obj.__dict__


class TestTimeSeries:
    def test_slotted(self):
        ts = TimeSeries(bucket_ms=10.0)
        with pytest.raises(AttributeError):
            ts.__dict__

    def test_content_equality(self):
        a, b = TimeSeries(bucket_ms=10.0), TimeSeries(bucket_ms=10.0)
        a.record(5.0, 1.0)
        assert a != b
        b.record(5.0, 1.0)
        assert a == b
        assert a != TimeSeries(bucket_ms=20.0)

    def test_bucket_ms_validated(self):
        with pytest.raises(ValueError):
            TimeSeries(bucket_ms=0.0)
