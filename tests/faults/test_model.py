"""Tests of the MTBF/MTTR fault profiles."""

import pytest

from repro.faults.model import (
    ComponentType,
    DEFAULT_FAULT_PROFILE,
    DEPRECIATION_CYCLE_HOURS,
    FaultProfile,
    FaultSpec,
    MS_PER_HOUR,
)


class TestFaultSpec:
    def test_unit_conversions(self):
        spec = FaultSpec(mtbf_hours=2.0, mttr_hours=0.5)
        assert spec.mtbf_ms == 2.0 * MS_PER_HOUR
        assert spec.mttr_ms == 0.5 * MS_PER_HOUR

    def test_availability(self):
        spec = FaultSpec(mtbf_hours=99.0, mttr_hours=1.0)
        assert spec.availability == pytest.approx(0.99)

    def test_incidents_per_cycle(self):
        spec = FaultSpec(mtbf_hours=DEPRECIATION_CYCLE_HOURS / 3.0, mttr_hours=1.0)
        assert spec.incidents_per_cycle() == pytest.approx(3.0)
        assert spec.incidents_per_cycle(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(mtbf_hours=0.0, mttr_hours=1.0)
        with pytest.raises(ValueError):
            FaultSpec(mtbf_hours=1.0, mttr_hours=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(mtbf_hours=1.0, mttr_hours=1.0).incidents_per_cycle(-1.0)


class TestFaultProfile:
    def test_default_covers_every_component(self):
        for ctype in ComponentType:
            spec = DEFAULT_FAULT_PROFILE.spec(ctype)
            assert spec is not None
            # Commodity parts are unreliable in aggregate, not per part.
            assert spec.availability > 0.99

    def test_missing_component_never_fails(self):
        profile = FaultProfile("p", {})
        assert profile.spec(ComponentType.DISK) is None

    def test_specs_are_frozen(self):
        with pytest.raises(TypeError):
            DEFAULT_FAULT_PROFILE.specs[ComponentType.DISK] = FaultSpec(1.0, 1.0)
