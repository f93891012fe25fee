"""repro.obs -- observability for the simulated serving stack.

Per-request distributed tracing (:class:`Tracer`, :class:`Trace`,
:class:`Span`), a labeled metrics registry (:class:`MetricsRegistry`),
critical-path tail-latency attribution
(:func:`attribute_critical_path`), and deterministic exporters
(span JSONL and Chrome trace-event JSON, see :mod:`repro.obs.export`).

The simulators accept an optional ``tracer``/``metrics`` pair; passing
neither leaves behaviour and performance unchanged (the zero-sampling
tracer budget in ``benchmarks/test_budgets.py`` checks this).  Tracing
never consumes RNG state, so traced and untraced runs of the same seed
produce identical simulation results.
"""

from repro.obs.critical_path import (
    COMPONENT_ORDER,
    OTHER,
    Attribution,
    attribute_critical_path,
    exclusive_times,
    format_attribution,
)
from repro.obs.export import (
    chrome_trace,
    spans_jsonl,
    trace_digest,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.span import Span, SpanKind, Trace
from repro.obs.tracer import Tracer

__all__ = [
    "Attribution",
    "COMPONENT_ORDER",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "OTHER",
    "Span",
    "SpanKind",
    "Trace",
    "Tracer",
    "attribute_critical_path",
    "chrome_trace",
    "exclusive_times",
    "format_attribution",
    "spans_jsonl",
    "trace_digest",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
]
