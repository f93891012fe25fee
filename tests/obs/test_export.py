"""Exporters: deterministic JSONL, digests, Chrome trace-event schema.

The direct formatters must write exactly the bytes of the
dict-and-``json.dump`` exporters kept in ``reference_export.py``: on a
real faulted cluster run, and on generated traces that reach every
fallback to the JSON encoder.
"""

import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import (
    Span,
    SpanKind,
    Trace,
    Tracer,
    chrome_trace,
    spans_jsonl,
    trace_digest,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs import export
from tests.cluster.test_trace_determinism import _cluster_run
from tests.obs import reference_export


def _sample_traces():
    trace = Trace(0)
    root = trace.start(SpanKind.REQUEST, 0.0)
    Trace.finish(trace.start(SpanKind.CPU, 0.0, parent=root), 3.0)
    trace.event(SpanKind.SHED, 3.0, reason="probe")
    trace.close(5.0)
    other = Trace(1)
    other.start(SpanKind.REQUEST, 1.0)
    other.close(2.0, status="gave_up")
    return [("groupA", [trace, other])]


class TestJsonl:
    def test_one_sorted_key_object_per_span(self):
        lines = spans_jsonl(_sample_traces()).splitlines()
        assert len(lines) == 4
        record = json.loads(lines[0])
        assert record["kind"] == "request"
        assert record["group"] == "groupA"
        assert list(record) == sorted(record)

    def test_byte_identical_across_builds(self):
        assert spans_jsonl(_sample_traces()) == spans_jsonl(_sample_traces())
        assert trace_digest(_sample_traces()) == trace_digest(_sample_traces())

    def test_digest_sees_every_field(self):
        groups = _sample_traces()
        base = trace_digest(groups)
        groups[0][1][0].spans[1].critical = False
        assert trace_digest(groups) != base

    def test_empty_groups_give_empty_log(self):
        assert spans_jsonl([("x", [])]) == ""

    def test_write_roundtrip(self, tmp_path):
        path = write_spans_jsonl(_sample_traces(), str(tmp_path / "spans.jsonl"))
        assert open(path).read() == spans_jsonl(_sample_traces())


class TestChromeTrace:
    def test_document_passes_its_own_validator(self):
        assert validate_chrome_trace(chrome_trace(_sample_traces())) == []

    def test_groups_become_processes_and_traces_threads(self):
        doc = chrome_trace(_sample_traces())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "groupA"
        thread_names = {e["args"]["name"] for e in meta[1:]}
        assert thread_names == {"request 0", "request 1"}

    def test_zero_duration_spans_become_instant_events(self):
        doc = chrome_trace(_sample_traces())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["cat"] == SpanKind.SHED for e in instants)

    def test_timestamps_are_microseconds(self):
        doc = chrome_trace(_sample_traces())
        cpu = next(e for e in doc["traceEvents"] if e.get("cat") == "cpu")
        assert cpu["dur"] == 3000.0

    def test_write_roundtrip_validates(self, tmp_path):
        path = write_chrome_trace(_sample_traces(), str(tmp_path / "t.json"))
        assert validate_chrome_trace(json.load(open(path))) == []


class TestValidator:
    def test_rejects_non_objects_and_missing_envelope(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]
        assert validate_chrome_trace({}) == ["missing traceEvents array"]
        assert validate_chrome_trace({"traceEvents": []}) == [
            "traceEvents is empty"
        ]

    def test_flags_missing_keys_and_bad_phases(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "n"},
                {"ph": "?", "name": "n"},
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("missing 'ts'" in p for p in problems)
        assert any("unsupported phase" in p for p in problems)

    def test_flags_negative_timestamps(self):
        doc = chrome_trace(_sample_traces())
        doc["traceEvents"][2]["ts"] = -1.0
        assert any("ts" in p for p in validate_chrome_trace(doc))

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, True, False], ids=repr
    )
    def test_flags_non_finite_and_boolean_timestamps(self, value):
        for key in ("ts", "dur"):
            doc = chrome_trace(_sample_traces())
            index, event = next(
                (i, e) for i, e in enumerate(doc["traceEvents"])
                if e["ph"] == "X"
            )
            event[key] = value
            assert validate_chrome_trace(doc) == [
                f"traceEvents[{index}]: {key} must be a finite number >= 0"
            ]


def _exports(module, groups, directory):
    """Every output of ``module``'s exporters on ``groups``, as bytes."""
    jsonl = module.write_spans_jsonl(groups, str(directory / "spans.jsonl"))
    chrome = module.write_chrome_trace(groups, str(directory / "trace.json"))
    with open(jsonl, "rb") as spans, open(chrome, "rb") as trace:
        return {
            "spans_jsonl": module.spans_jsonl(groups).encode("utf-8"),
            "trace_digest": module.trace_digest(groups),
            "spans.jsonl": spans.read(),
            "trace.json": trace.read(),
        }


def _assert_oracle_bytes(groups, directory):
    expected = _exports(reference_export, groups, directory)
    assert _exports(export, groups, directory) == expected
    assert expected["spans.jsonl"] == expected["spans_jsonl"]
    assert expected["trace_digest"] == hashlib.sha256(
        expected["spans_jsonl"]
    ).hexdigest()


class TestOracleBytes:
    def test_faulted_cluster_run(self, tmp_path):
        tracer = Tracer(sample_rate=1.0, seed=17)
        _cluster_run(tracer=tracer)
        spans = [span for trace in tracer.traces for span in trace.spans]
        assert len(spans) > 2000
        assert any(span.attrs for span in spans)
        assert any(span.parent_id is None for span in spans)
        _assert_oracle_bytes([("srvr1", tracer.traces)], tmp_path)

    def test_bools_and_numbers_stay_distinct(self, tmp_path):
        # ``True == 1 == 1.0``: a value-keyed memo would write them alike.
        trace = Trace(1)
        for critical, start in ((True, 1.0), (1, 1), (False, 0.0), (0, 0)):
            span = trace.start("cpu", start, critical=critical)
            span.end_ms = start
            span.annotate(flag=critical)
        trace.close(2.0)
        _assert_oracle_bytes([("g", [trace])], tmp_path)
        lines = spans_jsonl([("g", [trace])]).splitlines()
        assert [type(json.loads(line)["critical"]) for line in lines] == [
            bool, int, bool, int
        ]

    def test_chrome_trace_parses_the_written_file(self, tmp_path):
        path = write_chrome_trace(_sample_traces(), str(tmp_path / "t.json"))
        with open(path, encoding="utf-8") as handle:
            assert chrome_trace(_sample_traces()) == json.load(handle)
        assert chrome_trace(_sample_traces()) == json.loads(json.dumps(
            reference_export.chrome_trace(_sample_traces())
        ))


# -- generated traces -------------------------------------------------

_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u00e9", "\u2603",
                     "\U0001f600", 'a"b\\c']),
)
_TIMES = st.one_of(
    st.floats(),
    st.integers(-10**6, 10**6),
    st.sampled_from([-0.0, 0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf]),
)
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(_TEXT, children, max_size=3),
    )


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=6)
_ATTRS = st.one_of(
    st.none(),
    st.dictionaries(
        st.one_of(_TEXT, st.sampled_from(["span_id", "critical"])),
        _VALUES,
        max_size=4,
    ),
)


@st.composite
def _spans(draw, span_id):
    span = Span(
        span_id,
        draw(st.one_of(st.none(), st.integers(-5, 50))),
        draw(_TEXT),
        draw(_TEXT),
        draw(_TIMES),
        critical=draw(st.sampled_from([True, False, 1, 0])),
    )
    span.end_ms = draw(st.one_of(st.none(), _TIMES))
    span.attrs = draw(_ATTRS)
    return span


@st.composite
def _traces(draw, trace_id):
    trace = Trace(trace_id)
    trace.spans = [draw(_spans(i)) for i in range(draw(st.integers(0, 5)))]
    trace.status = draw(st.one_of(st.none(), _TEXT))
    return trace


@st.composite
def _groups(draw):
    return [
        (draw(_TEXT), [draw(_traces(t)) for t in range(draw(st.integers(0, 3)))])
        for _ in range(draw(st.integers(0, 3)))
    ]


@settings(
    max_examples=80,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(groups=_groups())
def test_generated_traces_match_the_oracle_bytes(groups, tmp_path):
    _assert_oracle_bytes(groups, tmp_path)
