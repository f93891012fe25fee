"""Tests of content-based page sharing and compression models."""

import pytest

from repro.memsim.sharing import (
    CompressionModel,
    PageSharingModel,
    effective_capacity_factor,
)


class TestPageSharingModel:
    def test_dedup_ratio_shrinks_with_pool_width(self):
        narrow = PageSharingModel(shareable_fraction=0.3, servers=2)
        wide = PageSharingModel(shareable_fraction=0.3, servers=16)
        assert wide.dedup_ratio() < narrow.dedup_ratio()

    def test_no_shareable_content_is_identity(self):
        model = PageSharingModel(shareable_fraction=0.0, servers=8)
        assert model.capacity_multiplier() == pytest.approx(1.0)

    def test_fully_shareable_collapses_to_pool(self):
        model = PageSharingModel(shareable_fraction=1.0, servers=8)
        assert model.capacity_multiplier() == pytest.approx(8.0)

    def test_default_gives_modest_gain(self):
        gain = PageSharingModel().capacity_multiplier()
        assert 1.2 < gain < 1.6

    def test_validation(self):
        with pytest.raises(ValueError):
            PageSharingModel(shareable_fraction=1.5)
        with pytest.raises(ValueError):
            PageSharingModel(servers=0)


class TestCompressionModel:
    def test_capacity_multiplier_formula(self):
        model = CompressionModel(compression_ratio=2.0, compressible_fraction=1.0)
        assert model.capacity_multiplier() == pytest.approx(2.0)

    def test_incompressible_data_limits_gain(self):
        model = CompressionModel(compression_ratio=4.0, compressible_fraction=0.0)
        assert model.capacity_multiplier() == pytest.approx(1.0)

    def test_default_mxt_class_gain(self):
        """MXT-class: ~1.5x capacity at mixed compressibility."""
        assert CompressionModel().capacity_multiplier() == pytest.approx(1.54, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionModel(compression_ratio=0.5)
        with pytest.raises(ValueError):
            CompressionModel(compressible_fraction=-0.1)


class TestEffectiveCapacity:
    def test_composition_multiplies(self):
        sharing = PageSharingModel(shareable_fraction=0.3, servers=8)
        compression = CompressionModel()
        combined = effective_capacity_factor(sharing, compression)
        assert combined == pytest.approx(
            sharing.capacity_multiplier() * compression.capacity_multiplier()
        )
        assert combined > 2.0  # both together roughly double blade capacity

    def test_nothing_enabled_is_identity(self):
        assert effective_capacity_factor() == 1.0

    def test_single_optimization(self):
        compression = CompressionModel()
        assert effective_capacity_factor(None, compression) == pytest.approx(
            compression.capacity_multiplier()
        )
