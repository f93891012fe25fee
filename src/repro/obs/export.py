"""Trace exporters: compact JSONL span logs and Chrome trace-event JSON.

Two formats, both deterministic byte-for-byte given the same traces:

- **span JSONL** -- one JSON object per span (trace id, span id, parent,
  kind, timestamps, critical flag, attributes), sorted keys, one line
  per span in creation order.  :func:`trace_digest` hashes this form,
  which is what the determinism tests compare across seeds and
  ``--jobs`` widths.
- **Chrome trace-event JSON** -- the ``{"traceEvents": [...]}`` format
  Perfetto and ``chrome://tracing`` load directly.  Each trace group
  (e.g. one design) becomes a process, each trace a thread, spans become
  complete (``"ph": "X"``) events and zero-duration spans become instant
  (``"ph": "i"``) events.  Timestamps are microseconds, as the format
  requires.

The bytes are the contract.  Each JSONL line is
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` of the
span's record, and the Chrome file is ``json.dumps(document,
sort_keys=True) + "\\n"``.  Both are written by direct formatters: one
template per line or event with its keys already in sorted order,
finite floats and ints written by their own ``__repr__``, strings
encoded once per export, and only attributes and unusual values handed
to a ``json.JSONEncoder`` on every use.
``tests/obs/reference_export.py`` keeps the dict-and-``json.dump``
exporters these replaced, as the oracle of that contract.

:func:`validate_chrome_trace` is the minimal schema check the CI
``scenario-smoke`` job runs against the EXT-11 spec's ``trace.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.obs.span import Trace

#: ``(label, traces)`` groups; each label becomes one Chrome "process".
TraceGroups = Sequence[Tuple[str, Sequence[Trace]]]

#: Lines or events formatted per write (or per digest update).
_BATCH = 1024


def _scalar_encoder(encode: Callable[[Any], str]) -> Callable[[Any], str]:
    """``encode`` with direct paths for the values span fields hold.

    Finite floats and ints are written by ``float.__repr__`` and
    ``int.__repr__``, as ``json`` writes them.  Strings, bools and
    ``None`` go to ``encode`` once per exporter call and are remembered;
    only those three types reach the memo, so ``True`` never stands in
    for ``1`` or ``1.0``.  Anything else -- NaN, infinities, subclasses,
    containers -- goes to ``encode`` every time.
    """
    float_repr = float.__repr__
    int_repr = int.__repr__
    seen: Dict[Any, str] = {}

    def scalar(value: Any) -> str:
        kind = type(value)
        if kind is float and value - value == 0.0:
            return float_repr(value)
        if kind is int:
            return int_repr(value)
        if kind is str or kind is bool or value is None:
            text = seen.get(value)
            if text is None:
                text = seen[value] = encode(value)
            return text
        return encode(value)

    return scalar


def _span_lines(groups: TraceGroups) -> Iterator[str]:
    """The span JSONL lines, without their newlines.

    A record's keys in sorted order are ``attrs`` (only when non-empty),
    ``critical``, ``end_ms``, ``group``, ``kind``, ``name``,
    ``parent_id``, ``span_id``, ``start_ms``, ``status`` and
    ``trace_id``; the group and trace parts are encoded once each.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    scalar = _scalar_encoder(encode)
    line = (
        '{}"critical":{},"end_ms":{}{},"kind":{},"name":{},'
        '"parent_id":{},"span_id":{},"start_ms":{}{}'
    ).format
    for label, traces in groups:
        group = ',"group":' + scalar(label)
        for trace in traces:
            tail = (',"status":' + scalar(trace.status)
                    + ',"trace_id":' + scalar(trace.trace_id) + "}")
            for span in trace.spans:
                attrs = span.attrs
                yield line(
                    '{"attrs":' + encode(attrs) + "," if attrs else "{",
                    scalar(span.critical), scalar(span.end_ms), group,
                    scalar(span.kind), scalar(span.name),
                    scalar(span.parent_id), scalar(span.span_id),
                    scalar(span.start_ms), tail,
                )


def _chrome_events(groups: TraceGroups) -> Iterator[str]:
    """The Chrome trace events, each as its ``sort_keys`` JSON text.

    Every group is a process (named via a metadata event), every trace
    a thread, every span a complete event with its kind as the
    category; zero-duration spans render as instant events.  A span's
    ``args`` are its ``span_id`` and ``critical`` flag, overridden and
    extended by its attributes.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    scalar = _scalar_encoder(encode)
    complete = (
        '{{"args": {}, "cat": {}, "dur": {}, "name": {}, "ph": "X", '
        '"pid": {}, "tid": {}, "ts": {}}}'
    ).format
    instant = (
        '{{"args": {}, "cat": {}, "name": {}, "ph": "i", '
        '"pid": {}, "s": "t", "tid": {}, "ts": {}}}'
    ).format
    meta = (
        '{{"args": {{"name": {}}}, "name": "{}", "ph": "M", '
        '"pid": {}, "tid": {}}}'
    ).format
    flags = '{{"critical": {}, "span_id": {}}}'.format
    for pid, (label, traces) in enumerate(groups, start=1):
        pid_text = scalar(pid)
        yield meta(scalar(label), "process_name", pid_text, "0")
        for trace in traces:
            tid = scalar(trace.trace_id)
            yield meta(encode(f"request {trace.trace_id}"), "thread_name",
                       pid_text, tid)
            for span in trace.spans:
                if span.attrs:
                    args: Dict[str, Any] = {
                        "span_id": span.span_id,
                        "critical": span.critical,
                    }
                    args.update(span.attrs)
                    args_text = encode(args)
                else:
                    args_text = flags(scalar(span.critical),
                                      scalar(span.span_id))
                start_us = span.start_ms * 1000.0
                end_ms = span.end_ms if span.end_ms is not None else span.start_ms
                duration_us = (end_ms - span.start_ms) * 1000.0
                if duration_us <= 0.0:
                    yield instant(args_text, scalar(span.kind),
                                  scalar(span.name), pid_text, tid,
                                  scalar(start_us))
                else:
                    yield complete(args_text, scalar(span.kind),
                                   scalar(duration_us), scalar(span.name),
                                   pid_text, tid, scalar(start_us))


def _batches(parts: Iterator[str]) -> Iterator[List[str]]:
    while True:
        batch = list(islice(parts, _BATCH))
        if not batch:
            return
        yield batch


def _emit_lines(groups: TraceGroups, write: Callable[[str], Any]) -> None:
    """Pass the span JSONL to ``write`` a batch of lines at a time."""
    for batch in _batches(_span_lines(groups)):
        batch.append("")
        write("\n".join(batch))


def _emit_chrome(groups: TraceGroups, write: Callable[[str], Any]) -> None:
    """Pass the Chrome trace document to ``write`` a batch of events at
    a time."""
    write('{"displayTimeUnit": "ms", "traceEvents": [')
    separator = ""
    for batch in _batches(_chrome_events(groups)):
        write(separator + ", ".join(batch))
        separator = ", "
    write("]}\n")


def spans_jsonl(groups: TraceGroups) -> str:
    """The compact span log: one sorted-key JSON object per line."""
    lines = list(_span_lines(groups))
    return "\n".join(lines) + ("\n" if lines else "")


def trace_digest(groups: TraceGroups) -> str:
    """SHA-256 of the span JSONL -- the determinism-test fingerprint."""
    digest = hashlib.sha256()
    _emit_lines(groups, lambda text: digest.update(text.encode("utf-8")))
    return digest.hexdigest()


def write_spans_jsonl(groups: TraceGroups, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        _emit_lines(groups, handle.write)
    return path


def chrome_trace(groups: TraceGroups) -> Dict[str, Any]:
    """The Chrome trace-event document for ``groups``, parsed from the
    text :func:`write_chrome_trace` writes.

    Loadable in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
    """
    buffer = io.StringIO()
    _emit_chrome(groups, buffer.write)
    return json.loads(buffer.getvalue())


def write_chrome_trace(groups: TraceGroups, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        _emit_chrome(groups, handle.write)
    return path


#: Keys required on every non-metadata trace event, by phase.
_REQUIRED_BY_PHASE = {
    "X": ("name", "cat", "ts", "dur", "pid", "tid"),
    "i": ("name", "cat", "ts", "s", "pid", "tid"),
    "M": ("name", "pid", "args"),
}


def validate_chrome_trace(document: Any) -> List[str]:
    """Minimal schema check of a Chrome trace-event document.

    Returns a list of human-readable problems (empty = valid).  Checks
    the envelope, the per-phase required keys, and that timestamps and
    durations are finite non-negative numbers -- enough to guarantee
    Perfetto will load the file, without chasing the full (enormous)
    spec.  Booleans are not numbers here, and neither are NaN and the
    infinities ``json`` writes as ``NaN`` and ``Infinity``, which are
    not JSON.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        required = _REQUIRED_BY_PHASE.get(phase)
        if required is None:
            problems.append(f"{where}: unsupported phase {phase!r}")
            continue
        for key in required:
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        for key in ("ts", "dur"):
            value = event.get(key)
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 <= value < math.inf
            ):
                problems.append(f"{where}: {key} must be a finite number >= 0")
    return problems
