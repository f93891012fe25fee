"""Tests of the DMA-direct enhancement model."""

import pytest

from repro.memsim.dma import DmaDirectModel


class TestDmaDirectModel:
    def test_no_io_misses_changes_nothing(self):
        model = DmaDirectModel(io_buffer_fraction=0.0)
        assert model.effective_miss_cost_factor() == pytest.approx(1.0)

    def test_all_io_misses_leave_only_residual(self):
        model = DmaDirectModel(io_buffer_fraction=1.0, residual_cost_fraction=0.1)
        assert model.effective_miss_cost_factor() == pytest.approx(0.1)

    def test_default_saves_about_a_quarter(self):
        """30% I/O misses at 10% residual cost: ~27% slowdown reduction."""
        factor = DmaDirectModel().effective_miss_cost_factor()
        assert factor == pytest.approx(0.73, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            DmaDirectModel(io_buffer_fraction=1.5)
        with pytest.raises(ValueError):
            DmaDirectModel(residual_cost_fraction=-0.1)
