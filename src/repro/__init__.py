"""Reproduction of Lim et al., "Understanding and Designing New Server
Architectures for Emerging Warehouse-Computing Environments" (ISCA 2008).

The package is organized by subsystem, mirroring the paper's structure:

- :mod:`repro.costmodel` -- component/server/rack cost and power models and
  the burdened power-and-cooling (Patel-Shah) model (paper section 2.2).
- :mod:`repro.platforms` -- CPU, memory, storage, and NIC device models and
  the six-system catalog of Table 2.
- :mod:`repro.workloads` -- the four-benchmark warehouse-computing suite of
  Table 1 (websearch, webmail, ytube, mapreduce).
- :mod:`repro.simulator` -- discrete-event server simulator and the
  closed-loop max-RPS-under-QoS sweep (the paper's COTSon + client driver
  substitute).
- :mod:`repro.memsim` -- trace-driven two-level memory-sharing simulator and
  the memory-blade provisioning analysis (section 3.4).
- :mod:`repro.flashcache` -- flash-based disk caching with low-power disks
  (section 3.5).
- :mod:`repro.cooling` -- packaging/cooling models: dual-entry enclosures
  and aggregated microblade cooling (section 3.3).
- :mod:`repro.core` -- metrics (Perf/W, Perf/Inf-$, Perf/TCO-$), efficiency
  analysis, and the unified N1/N2 designs (section 3.6).
- :mod:`repro.experiments` -- one module per paper table/figure.
"""

from repro.core.metrics import (
    EfficiencyMetrics,
    harmonic_mean,
)
from repro.core.designs import (
    BaselineDesign,
    UnifiedDesign,
    n1_design,
    n2_design,
)

__version__ = "1.0.0"

__all__ = [
    "EfficiencyMetrics",
    "harmonic_mean",
    "BaselineDesign",
    "UnifiedDesign",
    "n1_design",
    "n2_design",
    "__version__",
]
