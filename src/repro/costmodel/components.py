"""Per-server component cost and power records.

The paper's Figure 1(a) decomposes each server into five component groups
(CPU, memory, disk, board + management, power + fans).  A
:class:`ServerBill` holds the per-component hardware cost (dollars) and
maximum operational power (watts) for one server configuration, and derives
the per-server totals the rest of the cost model builds on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple


class Component(enum.Enum):
    """Server component groups used in the paper's cost breakdowns."""

    CPU = "cpu"
    MEMORY = "memory"
    DISK = "disk"
    BOARD = "board+mgmt"
    POWER_FANS = "power+fans"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ComponentSpec:
    """Hardware cost and maximum operational power for one component group.

    ``power_w`` is the *maximum operational* power from spec sheets and
    vendor power calculators, before the activity-factor discount is
    applied (paper section 2.2).
    """

    cost_usd: float
    power_w: float

    def __post_init__(self) -> None:
        if self.cost_usd < 0:
            raise ValueError(f"component cost must be >= 0, got {self.cost_usd}")
        if self.power_w < 0:
            raise ValueError(f"component power must be >= 0, got {self.power_w}")


@dataclass(frozen=True)
class ServerBill:
    """Complete per-server bill of materials: cost and power by component.

    This corresponds to one column of the paper's Figure 1(a) table
    (for example ``srvr1``: CPU $1,700 / 210 W, memory $350 / 25 W, ...).
    """

    name: str
    components: Mapping[Component, ComponentSpec]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a server bill must have at least one component")
        unknown = [c for c in self.components if not isinstance(c, Component)]
        if unknown:
            raise ValueError(f"unknown component keys: {unknown}")
        # Freeze the mapping so the bill is genuinely immutable.
        object.__setattr__(self, "components", dict(self.components))

    @property
    def hardware_cost_usd(self) -> float:
        """Total per-server hardware cost (sum over components)."""
        return sum(spec.cost_usd for spec in self.components.values())

    @property
    def power_w(self) -> float:
        """Total per-server maximum operational power (sum over components)."""
        return sum(spec.power_w for spec in self.components.values())

    def power_of(self, component: Component) -> float:
        """Maximum operational power of one component group (0 if absent)."""
        spec = self.components.get(component)
        return spec.power_w if spec is not None else 0.0

    def items(self) -> Iterator[Tuple[Component, ComponentSpec]]:
        """Iterate over ``(component, spec)`` pairs in enum order."""
        for component in Component:
            if component in self.components:
                yield component, self.components[component]

    def replace(
        self,
        name: str | None = None,
        **overrides: ComponentSpec,
    ) -> "ServerBill":
        """Return a new bill with some component specs replaced.

        Component overrides are given by the lowercase enum *name*, e.g.
        ``bill.replace(disk=ComponentSpec(80, 2))``.  This is how the
        unified designs (paper section 3.6) derive their bills from the
        catalog entries.
        """
        new_components: Dict[Component, ComponentSpec] = dict(self.components)
        for key, spec in overrides.items():
            try:
                component = Component[key.upper()]
            except KeyError as exc:
                raise ValueError(f"unknown component override {key!r}") from exc
            new_components[component] = spec
        return ServerBill(
            name=name if name is not None else self.name,
            components=new_components,
            description=self.description,
        )
