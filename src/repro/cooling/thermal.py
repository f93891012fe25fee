"""First-order thermo-mechanical models for enclosure airflow and heat
removal.

The paper reports the *outcomes* of its thermo-mechanical analysis
(calculations omitted for space): ~50% better cooling efficiency for the
dual-entry enclosure, and a further gain from aggregated heat removal with
planar heat pipes at 3x copper conductivity.  This module supplies the
first-order physics those outcomes follow from:

- Duct pressure drop scales as ``flow_length * velocity^2 / hydraulic_d``;
  air velocity is volumetric flow divided by total inlet area, so doubling
  the parallel paths halves velocity.
- Fan power is volumetric flow times pressure drop divided by fan
  efficiency.
- Conduction resistance of a spreader scales inversely with thermal
  conductivity and cross-section; a heat pipe at 3x copper conductivity
  cuts the spreading resistance accordingly, and aggregating heat into one
  large heat sink increases the convective area.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Density of air, kg/m^3 (sea level, ~25C).
AIR_DENSITY = 1.18
#: Specific heat of air, J/(kg K).
AIR_CP = 1005.0
#: Thermal conductivity of copper, W/(m K).
COPPER_CONDUCTIVITY = 400.0


@dataclass(frozen=True)
class AirflowPath:
    """One air path through an enclosure."""

    flow_length_m: float
    inlet_area_m2: float
    parallel_paths: int = 1
    hydraulic_diameter_m: float = 0.02
    friction_factor: float = 0.05

    def __post_init__(self) -> None:
        if min(self.flow_length_m, self.inlet_area_m2,
               self.hydraulic_diameter_m, self.friction_factor) <= 0:
            raise ValueError("airflow parameters must be positive")
        if self.parallel_paths <= 0:
            raise ValueError("parallel_paths must be positive")

    def velocity_m_s(self, volume_flow_m3_s: float) -> float:
        """Mean duct velocity for a given total volumetric flow."""
        if volume_flow_m3_s < 0:
            raise ValueError("volume flow must be >= 0")
        return volume_flow_m3_s / (self.inlet_area_m2 * self.parallel_paths)

    def pressure_drop_pa(self, volume_flow_m3_s: float) -> float:
        """Darcy-style duct pressure drop at a given total flow."""
        v = self.velocity_m_s(volume_flow_m3_s)
        return (
            self.friction_factor
            * (self.flow_length_m / self.hydraulic_diameter_m)
            * 0.5
            * AIR_DENSITY
            * v**2
        )


def required_flow_m3_s(heat_w: float, delta_t_k: float) -> float:
    """Volumetric airflow needed to carry ``heat_w`` at a ``delta_t_k`` rise."""
    if heat_w < 0:
        raise ValueError("heat must be >= 0")
    if delta_t_k <= 0:
        raise ValueError("temperature rise must be positive")
    return heat_w / (AIR_DENSITY * AIR_CP * delta_t_k)


def fan_power_w(
    path: AirflowPath,
    heat_w: float,
    delta_t_k: float,
    fan_efficiency: float = 0.3,
) -> float:
    """Fan power to remove ``heat_w`` through ``path`` at a given air rise."""
    if not 0 < fan_efficiency <= 1:
        raise ValueError("fan efficiency must be in (0, 1]")
    flow = required_flow_m3_s(heat_w, delta_t_k)
    return flow * path.pressure_drop_pa(flow) / fan_efficiency


@dataclass(frozen=True)
class HeatPipe:
    """A planar heat pipe / spreader between modules and a heat sink."""

    length_m: float
    cross_section_m2: float
    conductivity_w_mk: float = 3.0 * COPPER_CONDUCTIVITY  # paper: 3x copper

    def __post_init__(self) -> None:
        if min(self.length_m, self.cross_section_m2, self.conductivity_w_mk) <= 0:
            raise ValueError("heat pipe parameters must be positive")

    @property
    def conduction_resistance_k_w(self) -> float:
        """Conduction resistance length/(k*A), K/W."""
        return self.length_m / (self.conductivity_w_mk * self.cross_section_m2)


@dataclass(frozen=True)
class ThermalCircuit:
    """Series conduction + convection resistance from junction to air."""

    conduction_k_w: float
    convection_k_w: float

    def __post_init__(self) -> None:
        if self.conduction_k_w < 0 or self.convection_k_w <= 0:
            raise ValueError("invalid thermal resistances")

    @property
    def total_k_w(self) -> float:
        return self.conduction_k_w + self.convection_k_w
