"""Replica/parity blade groups: placement, recovery, page conservation."""

import random

import pytest

from repro.memsim.blade import IsolationError, PAGE_SIZE_BYTES
from repro.memsim.redundancy import (
    BladeGroup,
    RedundancyPolicy,
    ZERO_PAGE,
    auto_blade_group,
)


def _read(group, server_id, page):
    """The group's current value of one page (None if unrecoverable)."""
    return group._read_value(server_id, group.slot_of(server_id), page)


def _page(rng):
    return bytes(rng.getrandbits(8) for _ in range(16)) * (
        PAGE_SIZE_BYTES // 16
    )


def _page_states(group):
    """(intact, degraded, lost) counted one ``_page_state`` call per
    written page: the per-page classification ``audit`` must match."""
    states = [
        group._page_state(server_id, slot, page)
        for server_id, slot in group._slots.items()
        for page in group._written[server_id]
    ]
    return tuple(states.count(s) for s in ("intact", "degraded", "lost"))


def _blade_state(group):
    """Everything a write leaves behind, per blade and per server."""
    return (
        [
            (blade.transfers_to_blade, {
                owner: dict(allocation.resident)
                for owner, allocation in blade._allocations.items()
            })
            for blade in group.blades
        ],
        group._written, group.version, group.degraded_writes,
        group.lost_writes, group.pages_needing_rebuild,
    )


class TestPolicy:
    def test_replica_shape(self):
        policy = RedundancyPolicy.replicated(2)
        assert policy.fault_tolerance == 1
        assert policy.capacity_overhead == 2.0
        assert policy.min_blades == 2
        assert policy.degraded_read_amplification == 1.0
        assert policy.rebuild_transfers_per_page == 2.0

    def test_parity_shape(self):
        policy = RedundancyPolicy.parity(4)
        assert policy.fault_tolerance == 1
        assert policy.capacity_overhead == pytest.approx(1.25)
        assert policy.min_blades == 5
        assert policy.degraded_read_amplification == 4.0
        assert policy.rebuild_transfers_per_page == 5.0

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            RedundancyPolicy.replicated(1)
        with pytest.raises(ValueError):
            RedundancyPolicy.parity(0)
        with pytest.raises(ValueError):
            RedundancyPolicy(mode="raid6", copies=2, data_shards=4)


class TestIsolation:
    def test_unattached_server_rejected(self):
        group = auto_blade_group(
            RedundancyPolicy.replicated(2), 3, ["a"], pages_per_server=8
        )
        with pytest.raises(IsolationError):
            group.write_page("intruder", 0, ZERO_PAGE)

    def test_out_of_range_page_rejected_on_every_replica(self):
        group = auto_blade_group(
            RedundancyPolicy.replicated(2), 3, ["a", "b"], pages_per_server=8
        )
        with pytest.raises(IsolationError):
            group.write_page("a", 8, ZERO_PAGE)
        with pytest.raises(IsolationError):
            group.write_page("b", 100, ZERO_PAGE)

    def test_servers_cannot_read_each_others_pages(self):
        group = auto_blade_group(
            RedundancyPolicy.replicated(2), 3, ["a", "b"], pages_per_server=4
        )
        rng = random.Random(7)
        secret = _page(rng)
        group.write_page("a", 0, secret)
        # b's page 0 lives in b's allocation; it never sees a's bytes.
        assert _read(group, "b", 0) == ZERO_PAGE


class TestReplicaRecovery:
    def test_failover_read_returns_exact_bytes(self):
        group = auto_blade_group(
            RedundancyPolicy.replicated(2), 3, ["a"], pages_per_server=4
        )
        rng = random.Random(1)
        data = _page(rng)
        group.write_page("a", 2, data)
        group.fail_blade(group._replica_set(0)[0])
        assert _read(group, "a", 2) == data

    def test_rebuild_restores_full_redundancy(self):
        group = auto_blade_group(
            RedundancyPolicy.replicated(2), 3, ["a", "b"], pages_per_server=8
        )
        group.populate()
        group.fail_blade(0)
        group.repair_blade(0)
        assert group.pages_needing_rebuild > 0
        while group.rebuild_step(64):
            pass
        assert group.pages_needing_rebuild == 0
        assert group.degraded_pages() == 0
        audit = group.audit()
        assert audit.conserved
        assert audit.intact == audit.written

    def test_double_fault_loses_pages_but_conserves_accounting(self):
        group = auto_blade_group(
            RedundancyPolicy.replicated(2), 3, ["a"], pages_per_server=6
        )
        group.populate()
        group.fail_blade(0)
        group.fail_blade(1)
        audit = group.audit()
        assert audit.conserved
        assert audit.lost > 0
        assert audit.intact + audit.degraded + audit.lost == audit.written


class TestParityRecovery:
    def test_reconstruction_is_byte_exact(self):
        group = auto_blade_group(
            RedundancyPolicy.parity(4), 5, ["a"], pages_per_server=8
        )
        rng = random.Random(11)
        pages = {p: _page(rng) for p in range(8)}
        for p, data in pages.items():
            group.write_page("a", p, data)
        group.fail_blade(0)
        for p, data in pages.items():
            assert _read(group, "a", p) == data

    def test_degraded_write_keeps_page_reconstructable(self):
        group = auto_blade_group(
            RedundancyPolicy.parity(4), 5, ["a"], pages_per_server=8
        )
        rng = random.Random(13)
        old, new = _page(rng), _page(rng)
        group.write_page("a", 0, old)
        # Take down page 0's home blade, then overwrite: parity must
        # absorb old ^ new so the new value is still reconstructable.
        group.fail_blade(group._data_blade(0, 0))
        group.write_page("a", 0, new)
        assert group.degraded_writes == 1
        assert _read(group, "a", 0) == new

    def test_rebuild_after_repair_clears_worklist(self):
        group = auto_blade_group(
            RedundancyPolicy.parity(4), 5, ["a", "b"], pages_per_server=8
        )
        group.populate()
        group.fail_blade(2)
        group.repair_blade(2)
        while group.rebuild_step(32):
            pass
        assert group.pages_needing_rebuild == 0
        assert group.audit().conserved
        assert group.degraded_pages() == 0


class TestConservationProperty:
    """rebuilt + surviving + lost == allocated under random histories."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "policy,blades",
        [
            (RedundancyPolicy.replicated(2), 3),
            (RedundancyPolicy.replicated(3), 4),
            (RedundancyPolicy.parity(4), 5),
        ],
    )
    def test_audit_conserved_under_random_fault_history(
        self, policy, blades, seed
    ):
        rng = random.Random(seed)
        pages = 12
        group = auto_blade_group(
            policy, blades, ["a", "b"], pages_per_server=pages
        )
        group.populate()
        for _ in range(120):
            op = rng.random()
            server = rng.choice(["a", "b"])
            if op < 0.35:
                group.write_page(server, rng.randrange(pages), _page(rng))
            elif op < 0.75:
                down = [b for b, live in enumerate(group.live) if not live]
                up = [b for b, live in enumerate(group.live) if live]
                # Never exceed the policy's tolerance by more than one
                # extra fault (loss is allowed; bookkeeping must hold).
                if up and len(down) <= policy.fault_tolerance:
                    group.fail_blade(rng.choice(up))
            elif op < 0.90:
                down = [b for b, live in enumerate(group.live) if not live]
                if down:
                    group.repair_blade(rng.choice(down))
            else:
                group.rebuild_step(rng.randrange(1, 16))
            audit = group.audit()
            assert audit.conserved, f"audit broke: {audit}"
            assert (audit.intact, audit.degraded, audit.lost) == (
                _page_states(group)
            )
        # Recover everything recoverable and re-audit.
        for blade, live in enumerate(group.live):
            if not live:
                group.repair_blade(blade)
        while group.rebuild_step(64):
            pass
        final = group.audit()
        assert final.conserved
        assert final.duplicated == 0
        if final.lost == 0:
            # With nothing permanently lost, rebuild restores full
            # redundancy.  A lost page may strand its stripe siblings
            # degraded (their parity is unrecoverable) -- that history
            # is still conserved, just not repairable.
            assert final.degraded == 0

    def test_single_fault_within_tolerance_never_loses_pages(self):
        for policy, blades in (
            (RedundancyPolicy.replicated(2), 3),
            (RedundancyPolicy.parity(4), 5),
        ):
            group = auto_blade_group(
                policy, blades, ["a", "b", "c"], pages_per_server=16
            )
            group.populate()
            group.fail_blade(1)
            audit = group.audit()
            assert audit.lost == 0
            assert audit.conserved
            group.repair_blade(1)
            while group.rebuild_step(64):
                pass
            assert group.audit().intact == group.audit().written


class TestGroupConstruction:
    def test_too_few_blades_rejected(self):
        with pytest.raises(ValueError):
            BladeGroup(RedundancyPolicy.parity(4), 3)
        with pytest.raises(ValueError):
            BladeGroup(RedundancyPolicy.replicated(3), 2)

    def test_populate_counts_and_is_intact(self):
        group = auto_blade_group(
            RedundancyPolicy.replicated(2), 3, ["a", "b"], pages_per_server=5
        )
        assert group.populate() == 10
        audit = group.audit()
        assert audit.written == 10
        assert audit.intact == 10

    @pytest.mark.parametrize(
        "policy,blades,failed",
        [
            (RedundancyPolicy.replicated(2), 3, None),
            (RedundancyPolicy.replicated(3), 4, None),
            (RedundancyPolicy.replicated(2), 3, 1),
            (RedundancyPolicy.parity(4), 5, None),
        ],
    )
    def test_populate_stores_what_page_writes_store(
        self, policy, blades, failed
    ):
        """A healthy replica group is populated in bulk; the blades,
        counters and worklist must read as after one ``write_page`` per
        page (a group with a blade down, or parity, takes that path)."""
        groups = [
            auto_blade_group(policy, blades, ["a", "b", "c"], pages_per_server=9)
            for _ in range(2)
        ]
        for group in groups:
            group.write_page("b", 4, _page(random.Random(3)))
            if failed is not None:
                group.fail_blade(failed)
        assert groups[0].populate(pages_per_server=7) == 21
        for server_id in ("a", "b", "c"):
            for page in range(7):
                groups[1].write_page(server_id, page, ZERO_PAGE)
        assert _blade_state(groups[0]) == _blade_state(groups[1])
        assert groups[0].audit() == groups[1].audit()

    def test_attach_twice_rejected(self):
        group = auto_blade_group(
            RedundancyPolicy.replicated(2), 3, ["a"], pages_per_server=4
        )
        with pytest.raises(ValueError):
            group.attach("a", 4)
