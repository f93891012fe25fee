"""Stochastic fault injection for the discrete-event simulator.

Each registered component alternates between *up* periods drawn from an
exponential MTBF and *down* periods drawn from an exponential MTTR, all
from one seeded RNG so a run's entire fault schedule is a deterministic
function of the seed.  Draws happen lazily, in event order, which the
event loop's FIFO tie-breaking makes reproducible.

Correlated failures -- the cost of the paper's ensemble sharing -- are
expressed with :class:`FailureDomain`: one shared component (a memory
blade, an enclosure fan or PSU) whose fault degrades every attached
member at once, and whose repair restores them together.

The injector and :func:`schedule_maintenance` schedule on a *clock*:
anything with a ``now`` (simulated ms) and ``schedule(delay_ms,
callback)``.  The cluster engine (:mod:`repro.cluster.engine`) provides
one over its event heap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.faults.model import ComponentType, FaultProfile

if TYPE_CHECKING:  # type-only: keeps repro.faults import-light so the
    # costmodel can use fault profiles without dragging in the simulator
    from repro.simulator.telemetry import AvailabilityTracker

Action = Callable[[], None]


@dataclass
class FaultEvent:
    """One injected state transition, for reports and tests."""

    time_ms: float
    component: str
    kind: str  # "fail" | "repair"


class FaultComponent:
    """One injectable component instance."""

    def __init__(
        self,
        name: str,
        ctype: ComponentType,
        on_fail: Optional[Action],
        on_repair: Optional[Action],
    ):
        self.name = name
        self.ctype = ctype
        self.up = True
        self.failures = 0
        self._on_fail = on_fail
        self._on_repair = on_repair


class FailureDomain:
    """A shared component's blast radius: members degraded together.

    ``attach`` registers a (degrade, restore) callback pair for one
    member.  When the domain's component fails every member's degrade
    callback runs, in attach order; repair restores them the same way.
    """

    def __init__(self, name: str):
        self.name = name
        self.degraded = False
        self._members: List[Tuple[Action, Action]] = []

    def attach(self, on_degrade: Action, on_restore: Action) -> None:
        self._members.append((on_degrade, on_restore))
        if self.degraded:
            on_degrade()

    def degrade_all(self) -> None:
        self.degraded = True
        for on_degrade, _ in self._members:
            on_degrade()

    def restore_all(self) -> None:
        self.degraded = False
        for _, on_restore in self._members:
            on_restore()


class FaultInjector:
    """Drives per-component exponential fail/repair processes.

    Components registered against a profile with no spec for their class
    simply never fail.  All randomness comes from one ``random.Random``
    seeded at construction, independent of the workload RNG, so enabling
    faults never perturbs request sampling.
    """

    def __init__(
        self,
        clock,
        profile: FaultProfile,
        seed: int = 1,
        tracker: Optional["AvailabilityTracker"] = None,
    ):
        #: The scheduler: ``now`` and ``schedule(delay_ms, callback)``.
        self._sim = clock
        self._profile = profile
        self._rng = random.Random(seed)
        self.tracker = tracker
        self.components: List[FaultComponent] = []
        self.events: List[FaultEvent] = []
        self.failure_counts: Dict[ComponentType, int] = {}

    def register(
        self,
        name: str,
        ctype: ComponentType,
        on_fail: Optional[Action] = None,
        on_repair: Optional[Action] = None,
    ) -> FaultComponent:
        """Add a component and schedule its first failure (if it can fail)."""
        component = FaultComponent(name, ctype, on_fail, on_repair)
        self.components.append(component)
        if self.tracker is not None:
            self.tracker.observe(name, self._sim.now, up=True)
        spec = self._profile.spec(ctype)
        if spec is not None:
            self._schedule_failure(component, spec.mtbf_ms, spec.mttr_ms)
        return component

    def register_domain(
        self, name: str, ctype: ComponentType
    ) -> FailureDomain:
        """Register a shared component and return its failure domain."""
        domain = FailureDomain(name)
        self.register(
            name, ctype, on_fail=domain.degrade_all, on_repair=domain.restore_all
        )
        return domain

    def _schedule_failure(
        self, component: FaultComponent, mtbf_ms: float, mttr_ms: float
    ) -> None:
        delay = self._rng.expovariate(1.0 / mtbf_ms)

        def fail() -> None:
            component.up = False
            component.failures += 1
            self.failure_counts[component.ctype] = (
                self.failure_counts.get(component.ctype, 0) + 1
            )
            self.events.append(FaultEvent(self._sim.now, component.name, "fail"))
            if self.tracker is not None:
                self.tracker.observe(component.name, self._sim.now, up=False)
            if component._on_fail is not None:
                component._on_fail()
            repair_delay = self._rng.expovariate(1.0 / mttr_ms)
            self._sim.schedule(repair_delay, repair)

        def repair() -> None:
            component.up = True
            self.events.append(FaultEvent(self._sim.now, component.name, "repair"))
            if self.tracker is not None:
                self.tracker.observe(component.name, self._sim.now, up=True)
            if component._on_repair is not None:
                component._on_repair()
            self._schedule_failure(component, mtbf_ms, mttr_ms)

        self._sim.schedule(delay, fail)


def schedule_maintenance(
    clock,
    windows,
    on_drain: Callable[[int], None],
    on_restore: Callable[[int], None],
    events: Optional[List[FaultEvent]] = None,
) -> List[FailureDomain]:
    """Script maintenance drains through correlated failure domains.

    ``windows`` is an iterable of
    :class:`repro.faults.recovery.MaintenanceWindow`-shaped objects
    (``server``/``start_ms``/``duration_ms``); each becomes its own
    :class:`FailureDomain` whose degrade/restore pair fires at the
    scripted times -- the same blast-radius mechanism stochastic shared
    faults use, but with zero RNG consumed, so a maintenance plan
    (e.g. a rolling upgrade) never perturbs the request stream's seeded
    draws.  ``clock`` is the engine's scheduler, as for
    :class:`FaultInjector`; window times are absolute.  ``events``, when
    given, receives ``"drain"``/``"restore"`` :class:`FaultEvent`
    records alongside the injector's own.
    """
    domains: List[FailureDomain] = []
    for window in windows:
        domain = FailureDomain(f"maintenance/server{window.server}")
        domain.attach(
            lambda i=window.server: on_drain(i),
            lambda i=window.server: on_restore(i),
        )

        def drain(domain=domain, window=window) -> None:
            domain.degrade_all()
            if events is not None:
                events.append(FaultEvent(clock.now, domain.name, "drain"))

        def restore(domain=domain, window=window) -> None:
            domain.restore_all()
            if events is not None:
                events.append(FaultEvent(clock.now, domain.name, "restore"))

        clock.schedule(window.start_ms - clock.now, drain)
        clock.schedule(window.end_ms - clock.now, restore)
        domains.append(domain)
    return domains
