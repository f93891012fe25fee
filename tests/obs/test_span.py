"""Span/Trace model: tree construction, closing semantics, inspection."""

from repro.obs import Span, SpanKind, Trace


class TestSpan:
    def test_open_span_has_zero_duration(self):
        span = Span(0, None, SpanKind.CPU, "cpu", 10.0)
        assert span.end_ms is None
        assert span.duration_ms == 0.0

    def test_duration_after_finish(self):
        span = Span(0, None, SpanKind.CPU, "cpu", 10.0)
        Trace.finish(span, 13.5)
        assert span.duration_ms == 3.5

    def test_annotate_lazily_allocates(self):
        span = Span(0, None, SpanKind.DISK, "disk", 0.0)
        assert span.attrs is None
        span.annotate(cache="miss").annotate(bytes=4096)
        assert span.attrs == {"cache": "miss", "bytes": 4096}


class TestTrace:
    def test_first_span_is_root(self):
        trace = Trace(7)
        root = trace.start(SpanKind.REQUEST, 0.0)
        assert trace.root is root
        assert root.parent_id is None

    def test_parentless_spans_attach_to_root(self):
        trace = Trace(0)
        root = trace.start(SpanKind.REQUEST, 0.0)
        child = trace.start(SpanKind.CPU, 1.0)
        assert child.parent_id == root.span_id

    def test_explicit_parenting_and_children_of(self):
        trace = Trace(0)
        root = trace.start(SpanKind.REQUEST, 0.0)
        attempt = trace.start(SpanKind.ATTEMPT, 0.0, parent=root)
        cpu = trace.start(SpanKind.CPU, 0.0, parent=attempt)
        assert [s for s in trace.spans if s.parent_id == attempt.span_id] == [cpu]
        assert [s for s in trace.spans if s.parent_id == root.span_id] == [attempt]

    def test_span_ids_are_sequential_per_trace(self):
        trace = Trace(0)
        spans = [trace.start(SpanKind.CPU, float(i)) for i in range(4)]
        assert [s.span_id for s in spans] == [0, 1, 2, 3]

    def test_event_is_zero_duration_with_attrs(self):
        trace = Trace(0)
        trace.start(SpanKind.REQUEST, 0.0)
        event = trace.event(SpanKind.SHED, 5.0, reason="queue-full")
        assert event.start_ms == event.end_ms == 5.0
        assert event.attrs == {"reason": "queue-full"}

    def test_duration_is_root_duration(self):
        trace = Trace(0)
        trace.start(SpanKind.REQUEST, 2.0)
        trace.close(12.0)
        assert trace.duration_ms == 10.0
        assert Trace(1).duration_ms == 0.0

    def test_close_cuts_open_children_off_critical_path(self):
        trace = Trace(0)
        root = trace.start(SpanKind.REQUEST, 0.0)
        losing = trace.start(SpanKind.ATTEMPT, 1.0, parent=root)
        trace.close(9.0, status="ok")
        assert trace.status == "ok"
        assert root.end_ms == 9.0 and root.critical
        assert losing.end_ms == 9.0
        assert not losing.critical
        assert losing.attrs == {"cut_off": True}

    def test_close_is_idempotent(self):
        trace = Trace(0)
        trace.start(SpanKind.REQUEST, 0.0)
        trace.close(5.0, status="ok")
        trace.close(8.0, status="gave_up")
        assert trace.status == "ok"
        assert trace.root.end_ms == 5.0

    def test_complete_requires_closed_status_and_finished_spans(self):
        trace = Trace(0)
        trace.start(SpanKind.REQUEST, 0.0)
        assert not trace.complete
        trace.close(3.0)
        assert trace.complete
