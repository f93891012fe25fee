"""Redundant page placement across enclosure memory blades.

The paper's N2 design concentrates risk: one memory blade backs an
entire enclosure (section 3.4), so a single blade fault degrades every
attached server at once -- the shared-fate cost of ensemble sharing.
Hamilton's modular-datacenter argument (PAPERS.md) is that low-cost
shared components are only viable when redundancy and automated
recovery are first-class.  This module supplies the placement half of
that story: a :class:`BladeGroup` spreads each server's remote pages
across several blades under a :class:`RedundancyPolicy`, either

- **replication** -- every page stored on ``copies`` distinct blades
  (read the primary; fail over to any surviving copy), or
- **parity** -- pages striped RAID-5 style over ``data_shards`` blades
  plus one rotating XOR-parity blade per stripe (a lost data page is
  reconstructed by XOR-ing its ``k - 1`` stripe siblings with the
  parity page).  Parity is maintained as real page content, so tests
  recover actual bytes, not just counters.

Blade repair models hardware replacement: the repaired blade comes back
*empty* and the copies it held must be rebuilt from survivors -- the
rebuild worklist :class:`repro.faults.recovery.RecoveryOrchestrator`
drains as background DES traffic.  All placement is a pure function of
(server slot, page number), so a run's layout consumes zero RNG.

Semantics follow :class:`~repro.memsim.blade.MemoryBlade`: never-written
pages read as zeros, and per-server isolation is enforced on every blade
a copy lands on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.memsim.blade import IsolationError, MemoryBlade, PAGE_SIZE_BYTES

#: Shared zero-filled page: never-written reads and bulk population
#: reference this one immutable object instead of allocating 4 KB each.
ZERO_PAGE = bytes(PAGE_SIZE_BYTES)


def _xor_pages(a: bytes, b: bytes) -> bytes:
    """XOR two 4 KB pages (parity maintenance)."""
    if a is ZERO_PAGE or not any(a):
        return b
    if b is ZERO_PAGE or not any(b):
        return a
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(PAGE_SIZE_BYTES, "little")


@dataclass(frozen=True)
class RedundancyPolicy:
    """How a blade group protects pages against blade loss.

    ``mode="replica"`` stores ``copies`` full copies of every page on
    distinct blades and tolerates ``copies - 1`` concurrent blade
    failures at a capacity overhead of ``copies``x.

    ``mode="parity"`` stripes pages over ``data_shards`` (k) blades with
    one rotating XOR-parity blade per stripe (m = 1, RAID-5; wider
    Reed-Solomon codes are out of scope), tolerating one blade failure
    at a capacity overhead of ``(k + 1) / k`` -- but a degraded read
    costs ``k`` transfers (the surviving stripe) instead of one.
    """

    mode: str = "replica"
    #: Total copies of each page in replica mode (primary included).
    copies: int = 2
    #: Data shards per parity stripe (k) in parity mode.
    data_shards: int = 4

    def __post_init__(self) -> None:
        if self.mode not in ("replica", "parity"):
            raise ValueError(f"unknown redundancy mode {self.mode!r}")
        if self.mode == "replica" and self.copies < 2:
            raise ValueError("replica mode needs copies >= 2")
        if self.mode == "parity" and self.data_shards < 2:
            raise ValueError("parity mode needs data_shards >= 2")

    @classmethod
    def replicated(cls, copies: int = 2) -> "RedundancyPolicy":
        return cls(mode="replica", copies=copies)

    @classmethod
    def parity(cls, data_shards: int = 4) -> "RedundancyPolicy":
        return cls(mode="parity", data_shards=data_shards)

    @property
    def fault_tolerance(self) -> int:
        """Concurrent blade failures survived without data loss."""
        return self.copies - 1 if self.mode == "replica" else 1

    @property
    def capacity_overhead(self) -> float:
        """Raw blade capacity bought per byte of protected data."""
        if self.mode == "replica":
            return float(self.copies)
        return (self.data_shards + 1) / self.data_shards

    @property
    def min_blades(self) -> int:
        """Distinct blades the placement needs."""
        return self.copies if self.mode == "replica" else self.data_shards + 1

    @property
    def degraded_read_amplification(self) -> float:
        """Link transfers per page read while failed over."""
        return 1.0 if self.mode == "replica" else float(self.data_shards)

    @property
    def rebuild_transfers_per_page(self) -> float:
        """Link transfers to restore one lost copy (reads + the write)."""
        return 2.0 if self.mode == "replica" else float(self.data_shards + 1)

    def describe(self) -> str:
        if self.mode == "replica":
            return f"{self.copies}-replica"
        return f"parity {self.data_shards}+1"


@dataclass(frozen=True)
class ServiceProfile:
    """How a server's remote reads split across blade states.

    Fractions are over the server's written pages; ``amplification`` is
    the per-page link-transfer multiplier of the failover share.
    """

    direct_fraction: float = 1.0
    failover_fraction: float = 0.0
    amplification: float = 1.0
    lost_fraction: float = 0.0

    @property
    def healthy(self) -> bool:
        return self.failover_fraction == 0.0 and self.lost_fraction == 0.0


HEALTHY_PROFILE = ServiceProfile()


@dataclass(frozen=True)
class RedundancyAudit:
    """Page-conservation snapshot of a blade group.

    Every logically written page is in exactly one state; the
    conservation invariant the property tests assert is
    ``intact + degraded + lost == written`` with zero duplicates.
    """

    written: int
    #: Full redundancy: every copy resident on a live blade.
    intact: int
    #: Readable (directly or by reconstruction) but missing copies.
    degraded: int
    #: Unreadable: all copies down, wiped, or unreconstructable.
    lost: int
    #: Copies found beyond what the placement allows (always 0).
    duplicated: int

    @property
    def conserved(self) -> bool:
        return (
            self.intact + self.degraded + self.lost == self.written
            and self.duplicated == 0
        )


class BladeGroup:
    """Several memory blades behind one redundancy policy.

    Placement is deterministic: server ``slot`` (attach order) and page
    number fix every copy's blade.  In replica mode, server ``slot``'s
    copy ``j`` lives on blade ``(slot + j) % n``.  In parity mode,
    stripe ``s`` of server ``slot`` puts its parity page on blade
    ``(slot + s) % n`` and data position ``j`` on blade
    ``(slot + s + 1 + j) % n`` -- rotating parity so no blade becomes
    the parity hot spot.
    """

    def __init__(
        self,
        policy: RedundancyPolicy,
        blades: int,
        capacity_gb_per_blade: float = 1.0,
    ):
        if blades < policy.min_blades:
            raise ValueError(
                f"{policy.describe()} needs >= {policy.min_blades} blades, "
                f"got {blades}"
            )
        self.policy = policy
        self.blades: List[MemoryBlade] = [
            MemoryBlade(capacity_gb_per_blade) for _ in range(blades)
        ]
        self.live: List[bool] = [True] * blades
        self._slots: Dict[str, int] = {}
        self._pages: Dict[str, int] = {}
        #: Logical pages currently swapped out, per server.
        self._written: Dict[str, Set[int]] = {}
        #: Copies missing from LIVE blades (the rebuild worklist), as
        #: (server, kind, key, blade) with kind in {"data", "parity"}.
        self._worklist: List[Tuple[str, str, int, int]] = []
        #: Bumped on every state change; callers cache derived views
        #: (service profiles) against it.
        self.version = 0
        self.pages_rebuilt = 0
        self.degraded_writes = 0
        self.lost_writes = 0

    # -- placement ----------------------------------------------------

    @property
    def nblades(self) -> int:
        return len(self.blades)

    def _replica_set(self, slot: int) -> List[int]:
        nblades = len(self.blades)
        return [(slot + j) % nblades for j in range(self.policy.copies)]

    def _parity_blade(self, slot: int, stripe: int) -> int:
        return (slot + stripe) % self.nblades

    def _data_blade(self, slot: int, page: int) -> int:
        stripe, position = divmod(page, self.policy.data_shards)
        return (slot + stripe + 1 + position) % self.nblades

    def _stripe_pages(self, page: int) -> List[int]:
        k = self.policy.data_shards
        stripe = page // k
        return [stripe * k + j for j in range(k)]

    # -- membership ---------------------------------------------------

    def attach(self, server_id: str, pages: int) -> int:
        """Admit a server with a ``pages``-page allocation; returns slot."""
        if server_id in self._slots:
            raise ValueError(f"server {server_id!r} already attached")
        if pages <= 0:
            raise ValueError("allocation must be positive")
        slot = len(self._slots)
        if self.policy.mode == "replica":
            data_blades = self._replica_set(slot)
            parity_blades: List[int] = []
        else:
            # Rotating placement touches every blade.
            data_blades = list(range(self.nblades))
            parity_blades = data_blades
        for index in data_blades:
            self.blades[index].allocate(server_id, pages)
        stripes = -(-pages // self.policy.data_shards) if parity_blades else 0
        for index in parity_blades:
            self.blades[index].allocate(f"{server_id}#parity", stripes)
        self._slots[server_id] = slot
        self._pages[server_id] = pages
        self._written[server_id] = set()
        self.version += 1
        return slot

    def slot_of(self, server_id: str) -> int:
        try:
            return self._slots[server_id]
        except KeyError as exc:
            raise IsolationError(
                f"server {server_id!r} is not attached to this group"
            ) from exc

    def _check(self, server_id: str, page: int) -> int:
        slot = self.slot_of(server_id)
        if not 0 <= page < self._pages[server_id]:
            raise IsolationError(
                f"server {server_id!r} touched page {page} outside its "
                f"allocation of {self._pages[server_id]} pages"
            )
        return slot

    def populate(self, pages_per_server: Optional[int] = None) -> int:
        """Write (zero) pages for every attached server -- the steady
        remote working set the DES layer protects.  Returns pages
        written; shares one immutable zero page, so memory stays O(1).
        """
        total = 0
        # With every blade live, each replica write stores every copy:
        # the outcome of ``write_page`` per page, stored in bulk.  A
        # test holds the two paths to the same blades and counters.
        bulk = self.policy.mode == "replica" and all(self.live)
        for server_id, slot in self._slots.items():
            limit = self._pages[server_id]
            count = limit if pages_per_server is None else min(
                pages_per_server, limit
            )
            if bulk:
                zeros = dict.fromkeys(range(count), ZERO_PAGE)
                for index in self._replica_set(slot):
                    blade = self.blades[index]
                    blade.allocation_of(server_id).resident.update(zeros)
                    blade.transfers_to_blade += count
                self._written[server_id].update(range(count))
                self.version += count
            else:
                for page in range(count):
                    self.write_page(server_id, page, ZERO_PAGE)
            total += count
        return total

    # -- page I/O -----------------------------------------------------

    def _resident(self, blade: int, owner: str, page: int) -> Optional[bytes]:
        allocation = self.blades[blade].allocation_of(owner)
        if allocation is None:
            return None
        return allocation.resident.get(page)

    def _parity_value(self, server_id: str, slot: int, stripe: int) -> bytes:
        blade = self._parity_blade(slot, stripe)
        value = self._resident(blade, f"{server_id}#parity", stripe)
        return value if value is not None else ZERO_PAGE

    def write_page(self, server_id: str, page: int, data: bytes) -> None:
        """Swap a victim page out to the group (all copies updated)."""
        if len(data) != PAGE_SIZE_BYTES:
            raise ValueError(f"pages are {PAGE_SIZE_BYTES} bytes")
        slot = self._check(server_id, page)
        written = self._written[server_id]
        if self.policy.mode == "replica":
            stored = 0
            for blade in self._replica_set(slot):
                if self.live[blade]:
                    self.blades[blade].write_page(server_id, page, data)
                    stored += 1
            if stored == 0:
                self.lost_writes += 1
            elif stored < self.policy.copies:
                self.degraded_writes += 1
                self._note_missing_copies(server_id, slot, page)
        else:
            old = self._read_value(server_id, slot, page)
            if old is None:
                old = ZERO_PAGE  # unreconstructable old value: 2+ faults
            blade = self._data_blade(slot, page)
            data_stored = False
            if self.live[blade]:
                self.blades[blade].write_page(server_id, page, data)
                data_stored = True
            stripe = page // self.policy.data_shards
            parity_blade = self._parity_blade(slot, stripe)
            parity_stored = False
            if self.live[parity_blade]:
                parity = _xor_pages(
                    _xor_pages(self._parity_value(server_id, slot, stripe), old),
                    data,
                )
                self.blades[parity_blade].write_page(
                    f"{server_id}#parity", stripe, parity
                )
                parity_stored = True
            if not data_stored and not parity_stored:
                self.lost_writes += 1
            elif not data_stored or not parity_stored:
                self.degraded_writes += 1
        written.add(page)
        self.version += 1

    def _read_value(
        self, server_id: str, slot: int, page: int
    ) -> Optional[bytes]:
        """Current value of a written page, or None if unrecoverable."""
        if page not in self._written[server_id]:
            return ZERO_PAGE
        if self.policy.mode == "replica":
            for blade in self._replica_set(slot):
                if not self.live[blade]:
                    continue
                value = self._resident(blade, server_id, page)
                if value is not None:
                    return value
            return None
        blade = self._data_blade(slot, page)
        if self.live[blade]:
            value = self._resident(blade, server_id, page)
            if value is not None:
                return value
        # Reconstruct: XOR the surviving stripe with its parity page.
        stripe = page // self.policy.data_shards
        parity_blade = self._parity_blade(slot, stripe)
        if not self.live[parity_blade]:
            return None
        parity = self._resident(parity_blade, f"{server_id}#parity", stripe)
        if parity is None:
            # Parity copy itself missing (wiped, not yet rebuilt): only
            # a stripe with no written pages is trivially recoverable.
            if any(
                p in self._written[server_id] and p < self._pages[server_id]
                for p in self._stripe_pages(page)
            ):
                return None
            parity = ZERO_PAGE
        value = parity
        for sibling in self._stripe_pages(page):
            if sibling == page or sibling >= self._pages[server_id]:
                continue
            if sibling not in self._written[server_id]:
                continue
            sibling_blade = self._data_blade(slot, sibling)
            if not self.live[sibling_blade]:
                return None
            sibling_value = self._resident(sibling_blade, server_id, sibling)
            if sibling_value is None:
                return None
            value = _xor_pages(value, sibling_value)
        return value

    def _note_missing_copies(
        self, server_id: str, slot: int, page: int
    ) -> None:
        """Queue rebuilds for copies that could not be stored but whose
        home blade is live (wiped and awaiting rebuild)."""
        for blade in self._replica_set(slot):
            if (
                self.live[blade]
                and self._resident(blade, server_id, page) is None
                and (server_id, "data", page, blade) not in self._worklist
            ):
                self._worklist.append((server_id, "data", page, blade))

    # -- blade lifecycle ----------------------------------------------

    def fail_blade(self, blade: int) -> None:
        """A blade drops out; its contents are unreachable (and will be
        gone by repair time -- repair is hardware replacement)."""
        if not self.live[blade]:
            raise ValueError(f"blade {blade} is already down")
        self.live[blade] = False
        # Copies homed on a down blade cannot be rebuilt yet; drop them
        # from the worklist (repair re-scans).
        self._worklist = [
            item for item in self._worklist if item[3] != blade
        ]
        self.version += 1

    def repair_blade(self, blade: int) -> None:
        """The replacement blade arrives empty; queue its rebuilds."""
        if self.live[blade]:
            raise ValueError(f"blade {blade} is not down")
        for allocation in self.blades[blade]._allocations.values():
            allocation.resident.clear()
        self.live[blade] = True
        self._rescan_worklist()
        self.version += 1

    def _rescan_worklist(self) -> None:
        """Rebuild worklist = copies absent from their live home blade."""
        worklist: List[Tuple[str, str, int, int]] = []
        for server_id, slot in self._slots.items():
            written = self._written[server_id]
            if self.policy.mode == "replica":
                for page in sorted(written):
                    for blade in self._replica_set(slot):
                        if (
                            self.live[blade]
                            and self._resident(blade, server_id, page) is None
                        ):
                            worklist.append((server_id, "data", page, blade))
            else:
                stripes: Set[int] = set()
                for page in sorted(written):
                    stripes.add(page // self.policy.data_shards)
                    blade = self._data_blade(slot, page)
                    if (
                        self.live[blade]
                        and self._resident(blade, server_id, page) is None
                    ):
                        worklist.append((server_id, "data", page, blade))
                for stripe in sorted(stripes):
                    blade = self._parity_blade(slot, stripe)
                    if (
                        self.live[blade]
                        and self._resident(blade, f"{server_id}#parity", stripe)
                        is None
                    ):
                        worklist.append((server_id, "parity", stripe, blade))
        self._worklist = worklist

    @property
    def pages_needing_rebuild(self) -> int:
        """Copies restorable right now (their home blade is live)."""
        return len(self._worklist)

    def degraded_pages(self) -> int:
        """Written pages currently below full redundancy."""
        count = 0
        for server_id, slot in self._slots.items():
            for page in self._written[server_id]:
                if self._page_state(server_id, slot, page) != "intact":
                    count += 1
        return count

    def rebuild_step(self, max_copies: int) -> int:
        """Restore up to ``max_copies`` missing copies from survivors.

        Deterministic order (the worklist is rebuilt sorted); returns
        the number actually restored.  Unrecoverable entries (source
        lost too) are dropped from the worklist -- they surface as
        ``lost`` in :meth:`audit`.
        """
        restored = 0
        while self._worklist and restored < max_copies:
            server_id, kind, key, blade = self._worklist.pop(0)
            slot = self._slots[server_id]
            if not self.live[blade]:  # failed again mid-rebuild
                continue
            if kind == "data":
                value = self._read_value(server_id, slot, key)
                if value is None:
                    continue
                owner = server_id
            else:
                value = ZERO_PAGE
                recoverable = True
                for page in self._stripe_pages(key * self.policy.data_shards):
                    if page >= self._pages[server_id]:
                        continue
                    if page not in self._written[server_id]:
                        continue
                    part = self._read_value(server_id, slot, page)
                    if part is None:
                        recoverable = False
                        break
                    value = _xor_pages(value, part)
                if not recoverable:
                    continue
                owner = f"{server_id}#parity"
            self.blades[blade].write_page(owner, key, value)
            self.pages_rebuilt += 1
            restored += 1
        if restored:
            self.version += 1
        return restored

    # -- derived views ------------------------------------------------

    def _page_state(self, server_id: str, slot: int, page: int) -> str:
        """"intact" | "degraded" | "lost" for one written page."""
        if self.policy.mode == "replica":
            live_copies = 0
            full = True
            for blade in self._replica_set(slot):
                if not self.live[blade]:
                    full = False
                    continue
                if self._resident(blade, server_id, page) is not None:
                    live_copies += 1
                else:
                    full = False
            if live_copies == 0:
                return "lost"
            return "intact" if full else "degraded"
        blade = self._data_blade(slot, page)
        direct = (
            self.live[blade]
            and self._resident(blade, server_id, page) is not None
        )
        stripe = page // self.policy.data_shards
        parity_blade = self._parity_blade(slot, stripe)
        parity_ok = (
            self.live[parity_blade]
            and self._resident(parity_blade, f"{server_id}#parity", stripe)
            is not None
        )
        if direct and parity_ok:
            return "intact"
        if direct:
            return "degraded"
        if self._read_value(server_id, slot, page) is not None:
            return "degraded"
        return "lost"

    def service_profile(self, server_id: str) -> ServiceProfile:
        """How this server's remote reads currently split (see
        :class:`ServiceProfile`); healthy groups return the shared
        :data:`HEALTHY_PROFILE`."""
        slot = self.slot_of(server_id)
        written = self._written[server_id]
        if not written:
            return HEALTHY_PROFILE
        direct = failover = lost = 0
        for page in written:
            state = self._page_state(server_id, slot, page)
            if state == "lost":
                lost += 1
                continue
            # Degraded pages whose primary copy survives still read
            # directly; failover applies when the primary is gone.
            if self.policy.mode == "replica":
                primary = self._replica_set(slot)[0]
                primary_ok = (
                    self.live[primary]
                    and self._resident(primary, server_id, page) is not None
                )
            else:
                blade = self._data_blade(slot, page)
                primary_ok = (
                    self.live[blade]
                    and self._resident(blade, server_id, page) is not None
                )
            if primary_ok:
                direct += 1
            else:
                failover += 1
        total = len(written)
        if failover == 0 and lost == 0:
            return HEALTHY_PROFILE
        return ServiceProfile(
            direct_fraction=direct / total,
            failover_fraction=failover / total,
            amplification=self.policy.degraded_read_amplification,
            lost_fraction=lost / total,
        )

    def audit(self) -> RedundancyAudit:
        """Page-conservation snapshot (see :class:`RedundancyAudit`).

        A replica group's pages are classified as :meth:`_page_state`
        does, but by set operations over each blade's resident pages; a
        parity group's go through :meth:`_page_state` one at a time.
        """
        written = intact = degraded = lost = duplicated = 0
        live = self.live
        for server_id, slot in self._slots.items():
            pages = self._written[server_id]
            written += len(pages)
            # Each blade's resident pages of this server, looked up once
            # per server rather than once per page.  A resident value is
            # page bytes, never None, so holding a key is holding a copy.
            held = []
            for blade in self.blades:
                allocation = blade.allocation_of(server_id)
                held.append(
                    set() if allocation is None else allocation.resident.keys()
                )
            if self.policy.mode == "replica":
                allowed = self._replica_set(slot)
                copies = [held[blade] for blade in allowed if live[blade]]
                full = (
                    len(pages.intersection(*copies))
                    if len(copies) == len(allowed) else 0
                )
                readable = len(pages.intersection(set().union(*copies)))
                intact += full
                degraded += readable - full
                lost += len(pages) - readable
                strays = set().union(*(
                    keys for blade, keys in enumerate(held)
                    if blade not in allowed
                ))
                duplicated += len(pages.intersection(strays))
                continue
            for page in pages:
                state = self._page_state(server_id, slot, page)
                if state == "intact":
                    intact += 1
                elif state == "degraded":
                    degraded += 1
                else:
                    lost += 1
                home = self._data_blade(slot, page)
                if any(
                    page in keys for blade, keys in enumerate(held)
                    if blade != home
                ):
                    duplicated += 1
        return RedundancyAudit(
            written=written, intact=intact, degraded=degraded, lost=lost,
            duplicated=duplicated,
        )


def auto_blade_group(
    policy: RedundancyPolicy,
    blades: int,
    server_ids: Sequence[str],
    pages_per_server: int,
) -> BladeGroup:
    """A group sized so every server's allocation (data + parity, on
    every blade the rotation can touch) is guaranteed to fit."""
    per_blade_pages = len(server_ids) * (
        pages_per_server + -(-pages_per_server // policy.data_shards) + 1
    )
    capacity_gb = max(1.0, per_blade_pages * PAGE_SIZE_BYTES * 1.25 / (1 << 30))
    group = BladeGroup(policy, blades, capacity_gb_per_blade=capacity_gb)
    for server_id in server_ids:
        group.attach(server_id, pages_per_server)
    return group
