"""Reference oracle: the dict-and-``json.dump`` trace exporters.

This is ``repro.obs.export`` as it stood before the direct span
formatters replaced it (every span built into a dict, then handed to
``json.dumps`` or, for the Chrome file, to ``json.dump`` on the file
handle), kept unchanged so ``test_export.py`` and the export budget in
``benchmarks/test_budgets.py`` can require the formatters to write the
same bytes.  Its validator is not copied; it stays in the module.

The byte contract both sides hold:

- each span JSONL line is ``json.dumps(record, sort_keys=True,
  separators=(",", ":"))`` of the record :func:`span_records` builds;
- the Chrome file is ``json.dumps(chrome_trace(groups),
  sort_keys=True) + "\\n"``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.span import Trace

#: ``(label, traces)`` groups; each label becomes one Chrome "process".
TraceGroups = Sequence[Tuple[str, Sequence[Trace]]]


def span_records(
    traces: Iterable[Trace], group: Optional[str] = None
) -> Iterable[Dict[str, Any]]:
    """Flat JSON-friendly span records in deterministic order."""
    for trace in traces:
        for span in trace.spans:
            record: Dict[str, Any] = {
                "trace_id": trace.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "kind": span.kind,
                "name": span.name,
                "start_ms": span.start_ms,
                "end_ms": span.end_ms,
                "critical": span.critical,
                "status": trace.status,
            }
            if group is not None:
                record["group"] = group
            if span.attrs:
                record["attrs"] = span.attrs
            yield record


def spans_jsonl(groups: TraceGroups) -> str:
    """The compact span log: one sorted-key JSON object per line."""
    lines = []
    for label, traces in groups:
        for record in span_records(traces, group=label):
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
    return "\n".join(lines) + ("\n" if lines else "")


def trace_digest(groups: TraceGroups) -> str:
    """SHA-256 of the span JSONL -- the determinism-test fingerprint."""
    return hashlib.sha256(spans_jsonl(groups).encode("utf-8")).hexdigest()


def write_spans_jsonl(groups: TraceGroups, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans_jsonl(groups))
    return path


def chrome_trace(groups: TraceGroups) -> Dict[str, Any]:
    """The Chrome trace-event document for ``groups``.

    Loadable in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``: every group is a process (named via a metadata
    event), every trace a thread, every span a complete event with its
    kind as the category; zero-duration spans render as instant events.
    """
    events: List[Dict[str, Any]] = []
    for pid, (label, traces) in enumerate(groups, start=1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        for trace in traces:
            tid = trace.trace_id
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"request {trace.trace_id}"},
                }
            )
            for span in trace.spans:
                args: Dict[str, Any] = {
                    "span_id": span.span_id,
                    "critical": span.critical,
                }
                if span.attrs:
                    args.update(span.attrs)
                start_us = span.start_ms * 1000.0
                end_ms = span.end_ms if span.end_ms is not None else span.start_ms
                duration_us = (end_ms - span.start_ms) * 1000.0
                if duration_us <= 0.0:
                    events.append(
                        {
                            "name": span.name,
                            "cat": span.kind,
                            "ph": "i",
                            "s": "t",
                            "ts": start_us,
                            "pid": pid,
                            "tid": tid,
                            "args": args,
                        }
                    )
                else:
                    events.append(
                        {
                            "name": span.name,
                            "cat": span.kind,
                            "ph": "X",
                            "ts": start_us,
                            "dur": duration_us,
                            "pid": pid,
                            "tid": tid,
                            "args": args,
                        }
                    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(groups: TraceGroups, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(groups), handle, sort_keys=True)
        handle.write("\n")
    return path
