"""Packaging and cooling models (paper section 3.3).

Two novel packaging designs are modelled against a conventional enclosure:

- *Dual-entry enclosures with directed airflow*: blades insert from front
  and back onto a midplane; cold air is directed vertically through all
  blades in parallel (a parallel connection of thermal resistances instead
  of a serial one).  Shorter flow length, lower pre-heat and reduced
  pressure drop give ~50% better cooling efficiency and allow 320 systems
  per rack (40 blades of 75 W in a 5U enclosure).

- *Board-level aggregated heat removal*: small server modules interspersed
  with planar heat pipes (3x copper conductivity) that move heat to one
  central optimized heat sink.  With four 25 W modules per carrier blade
  this allows 1250 systems per rack and roughly 4x cooling efficiency.
"""

from repro.cooling.thermal import (
    AirflowPath,
    HeatPipe,
    ThermalCircuit,
    fan_power_w,
)
from repro.cooling.enclosure import (
    EnclosureDesign,
    CONVENTIONAL_ENCLOSURE,
    DUAL_ENTRY_ENCLOSURE,
    AGGREGATED_MICROBLADE,
)
from repro.cooling.rack import RackPacking, pack_rack

__all__ = [
    "AirflowPath",
    "HeatPipe",
    "ThermalCircuit",
    "fan_power_w",
    "EnclosureDesign",
    "CONVENTIONAL_ENCLOSURE",
    "DUAL_ENTRY_ENCLOSURE",
    "AGGREGATED_MICROBLADE",
    "RackPacking",
    "pack_rack",
]
