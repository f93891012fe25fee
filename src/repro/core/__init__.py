"""Core analysis layer: metrics, efficiency tables, and unified designs.

- :mod:`~repro.core.metrics` -- Perf/W, Perf/Inf-$, Perf/P&C-$ and
  Perf/TCO-$ metrics with harmonic-mean aggregation (paper section 2.2).
- :mod:`~repro.core.efficiency` -- relative-to-baseline efficiency tables
  in the format of Figure 2(c).
- :mod:`~repro.core.designs` -- complete server designs combining a
  platform, a cost bill, packaging/cooling, memory sharing, and storage;
  includes the unified N1 and N2 designs of section 3.6.
- :mod:`~repro.core.analysis` -- the "putting it all together" evaluation
  that scores designs against baselines.
"""

from repro.core.metrics import (
    EfficiencyMetrics,
    harmonic_mean,
)
from repro.core.efficiency import EfficiencyTable, build_efficiency_tables
from repro.core.designs import (
    BaselineDesign,
    UnifiedDesign,
    baseline_design,
    n1_design,
    n2_design,
)
from repro.core.analysis import DesignEvaluation, evaluate_designs

__all__ = [
    "EfficiencyMetrics",
    "harmonic_mean",
    "EfficiencyTable",
    "build_efficiency_tables",
    "BaselineDesign",
    "UnifiedDesign",
    "baseline_design",
    "n1_design",
    "n2_design",
    "DesignEvaluation",
    "evaluate_designs",
]
