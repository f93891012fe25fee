"""Tests of rack packing."""

import pytest

from repro.cooling.enclosure import (
    AGGREGATED_MICROBLADE,
    CONVENTIONAL_ENCLOSURE,
    DUAL_ENTRY_ENCLOSURE,
)
from repro.cooling.rack import pack_rack
from repro.costmodel.catalog import server_bill


def racks_for(packing, servers: int) -> int:
    """Racks needed to house ``servers`` systems."""
    if servers < 0:
        raise ValueError("server count must be >= 0")
    per = packing.systems_per_rack
    return -(-servers // per) if servers else 0


class TestPackRack:
    def test_conventional_srvr1_rack_power(self):
        """Section 3.2: srvr1 consumes 13.6 kW/rack."""
        packing = pack_rack(CONVENTIONAL_ENCLOSURE, server_bill("srvr1").power_w)
        assert packing.rack_power_kw == pytest.approx(13.64, abs=0.05)

    def test_conventional_emb1_rack_power_low(self):
        packing = pack_rack(CONVENTIONAL_ENCLOSURE, server_bill("emb1").power_w)
        assert packing.rack_power_kw < 3.0

    def test_switch_share_constant_per_server(self):
        dense = pack_rack(DUAL_ENTRY_ENCLOSURE, 78.0)
        config = dense.rack_config()
        assert config.servers_per_rack == 320
        assert config.switch_cost_per_server_usd == pytest.approx(68.75)
        assert config.switch_power_per_server_w == pytest.approx(1.0)

    def test_racks_for_fleet(self):
        packing = pack_rack(AGGREGATED_MICROBLADE, 30.0)
        assert racks_for(packing, 0) == 0
        assert racks_for(packing, 1) == 1
        assert racks_for(packing, 1250) == 1
        assert racks_for(packing, 1251) == 2
        with pytest.raises(ValueError):
            racks_for(packing, -1)

    def test_compaction_reduces_racks(self):
        """Paper: N2 'consumes 30% less racks'-style compaction claims."""
        fleet = 10_000
        conventional = racks_for(pack_rack(CONVENTIONAL_ENCLOSURE, 52.0), fleet)
        microblade = racks_for(pack_rack(AGGREGATED_MICROBLADE, 30.0), fleet)
        assert microblade < conventional / 10

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            pack_rack(CONVENTIONAL_ENCLOSURE, -1.0)
