"""Unit tests for memory technologies and configurations."""

import pytest

from repro.platforms.memory import MemoryConfig, MemoryTechnology


class TestMemoryTechnology:
    def test_bandwidth_ordering(self):
        assert (
            MemoryTechnology.FBDIMM.bandwidth_factor
            > MemoryTechnology.DDR2.bandwidth_factor
            > MemoryTechnology.DDR1.bandwidth_factor
        )


class TestMemoryConfig:
    def test_channel_bandwidth_includes_numa_efficiency(self):
        config = MemoryConfig(4.0, MemoryTechnology.FBDIMM, channels=4,
                              numa_efficiency=0.75)
        assert config.channel_bandwidth_factor == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(0.0, MemoryTechnology.DDR2)
        with pytest.raises(ValueError):
            MemoryConfig(4.0, MemoryTechnology.DDR2, channels=0)
        with pytest.raises(ValueError):
            MemoryConfig(4.0, MemoryTechnology.DDR2, numa_efficiency=0.0)
        with pytest.raises(ValueError):
            MemoryConfig(4.0, MemoryTechnology.DDR2, numa_efficiency=1.2)
