"""Tracer unit behaviour: nesting, events, errors, determinism knobs."""

import enum

import pytest

from repro.obs import NOOP_TRACER, Observability, Tracer
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock, capture_real_time=False)


class TestSpanLifecycle:
    def test_nesting_builds_parent_links(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id

    def test_sibling_roots_get_fresh_trace_ids(self, tracer):
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id
        assert a.parent_id is None and b.parent_id is None

    def test_span_ids_are_sequential_from_construction(self, tracer):
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        with tracer.span("c") as c:
            pass
        assert (a.span_id, b.span_id, c.span_id) == (1, 2, 3)

    def test_virtual_stamps_come_from_the_clock(self, tracer, clock):
        clock.advance(100.0)
        with tracer.span("op") as span:
            clock.advance(15.5)
        assert span.start_virtual_ms == 100.0
        assert span.end_virtual_ms == 115.5
        assert span.duration_virtual_ms == 15.5

    def test_real_time_capture_disabled_yields_constants(self, tracer):
        with tracer.span("op") as span:
            pass
        assert span.start_real_ms == 0.0
        assert span.end_real_ms == 0.0

    def test_escaping_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("op") as span:
                raise ValueError("boom")
        assert span.status == "error"
        assert "boom" in span.error
        assert span.finished

    def test_end_span_closes_dangling_children(self, tracer):
        outer = tracer.start_span("outer")
        tracer.start_span("leaked")
        tracer.end_span(outer)
        assert tracer.current_span is None
        assert all(span.finished for span in tracer.spans)

    def test_ending_an_unopened_span_raises(self, tracer):
        with tracer.span("done") as span:
            pass
        with pytest.raises(ValueError):
            tracer.end_span(span)

    def test_ending_a_closed_child_leaves_open_spans_untouched(self, tracer):
        seen = []
        tracer.add_sink(seen.append)
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        tracer.end_span(b)
        with pytest.raises(ValueError, match="'b' is not open"):
            tracer.end_span(b)
        assert tracer.current_span is a
        assert not a.finished
        assert seen == [b]  # the half-built root reached no sink
        tracer.end_span(a)
        assert seen == [b, a]

    def test_ending_a_foreign_span_raises_before_unwinding(self, tracer, clock):
        other = Tracer(clock, capture_real_time=False)
        foreign = other.start_span("foreign")
        outer = tracer.start_span("outer")
        with pytest.raises(ValueError):
            tracer.end_span(foreign)
        assert tracer.current_span is outer
        assert not outer.finished

    def test_late_clock_binding(self):
        tracer = Tracer(capture_real_time=False)
        clock = SimulatedClock()
        clock.advance(42.0)
        tracer.bind_clock(clock)
        with tracer.span("op") as span:
            pass
        assert span.start_virtual_ms == 42.0


class Level(enum.IntEnum):
    HIGH = 3


class Tag(str):
    pass


class Shown:
    def __repr__(self):
        return "Shown(repr)"

    def __str__(self):
        return "shown-str"


class TestSpanScope:
    def test_scope_yields_the_started_span(self, tracer):
        scope = tracer.span("op", key="value")
        assert tracer.current_span is None  # opens on entry, not on call
        with scope as span:
            assert tracer.current_span is span
            assert span.attributes == {"key": "value"}
        assert span.finished and tracer.current_span is None

    def test_error_is_marked_and_reraised_unchanged(self, tracer):
        error = KeyError("missing")
        with pytest.raises(KeyError) as raised:
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    raise error
        assert raised.value is error
        for span in (inner, outer):
            assert span.status == "error"
            assert span.error == "KeyError: 'missing'"
            assert span.finished

    def test_base_exceptions_are_marked_too(self, tracer):
        with pytest.raises(KeyboardInterrupt):
            with tracer.span("op") as span:
                raise KeyboardInterrupt()
        assert span.status == "error"
        assert span.error == "KeyboardInterrupt: "

    def test_scope_opens_and_closes_through_the_public_methods(self, clock):
        calls = []

        class Recording(Tracer):
            def start_span(self, name, **attributes):
                calls.append(("start", name, attributes))
                return super().start_span(name, **attributes)

            def end_span(self, span):
                calls.append(("end", span.name))
                return super().end_span(span)

        tracer = Recording(clock, capture_real_time=False)
        with tracer.span("op", platform="android"):
            pass
        assert calls == [("start", "op", {"platform": "android"}), ("end", "op")]

    def test_non_scalar_attributes_are_stored_as_repr(self, tracer):
        with tracer.span("op", items=[1, 2], shown=Shown()) as span:
            span.set_attribute("pair", (1, "x"))
            span.set_attribute("late", Shown())
            tracer.event("note", obj=Shown(), level=None)
        assert span.attributes == {
            "items": "[1, 2]",
            "shown": "Shown(repr)",
            "pair": "(1, 'x')",
            "late": "Shown(repr)",
        }
        assert span.events[0].attributes == {"obj": "Shown(repr)", "level": None}

    def test_scalar_subclasses_are_stored_as_is(self, tracer):
        tag = Tag("blue")
        with tracer.span("op", flag=True, level=Level.HIGH, tag=tag) as span:
            span.set_attribute("late", Level.HIGH)
            tracer.event("note", flag=False, level=Level.HIGH, tag=tag)
        for attributes in (span.attributes, span.events[0].attributes):
            assert type(attributes["flag"]) is bool
            assert attributes["level"] is Level.HIGH
            assert attributes["tag"] is tag
        assert span.attributes["late"] is Level.HIGH
        assert list(span.attributes) == ["flag", "level", "tag", "late"]

    def test_reprs_name_the_span_and_event(self, tracer):
        with tracer.span("op") as span:
            tracer.event("note", n=1)
        assert repr(span).startswith("Span(name='op', trace_id=1, span_id=1")
        assert repr(span.events[0]) == (
            "SpanEvent(name='note', t_virtual_ms=0.0, attributes={'n': 1})"
        )

    def test_set_attribute_overwrites_in_place(self, tracer):
        with tracer.span("op", a=1, b=2) as span:
            span.set_attribute("a", [3])
        assert span.attributes == {"a": "[3]", "b": 2}
        assert list(span.attributes) == ["a", "b"]


class TestTraceSinks:
    def test_trace_arrives_once_in_completion_order(self, tracer):
        traces = []
        tracer.add_trace_sink(traces.append)
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        with tracer.span("second"):
            pass
        assert [[span.name for span in trace] for trace in traces] == [
            ["a1", "a", "b", "root"],
            ["second"],
        ]

    def test_span_sinks_see_the_root_before_trace_sinks(self, tracer):
        order = []
        tracer.add_trace_sink(lambda trace: order.append("trace"))
        tracer.add_sink(lambda span: order.append(span.name))
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert order == ["child", "root", "trace"]

    def test_dangling_children_close_into_the_trace(self, tracer):
        traces = []
        tracer.add_trace_sink(traces.append)
        root = tracer.start_span("root")
        tracer.start_span("leaked")
        tracer.end_span(root)
        assert [span.name for span in traces[0]] == ["leaked", "root"]


class TestStreamingRetention:
    def test_switching_to_streaming_keeps_earlier_spans(self, tracer):
        with tracer.span("kept") as kept:
            with tracer.span("kept-child") as kept_child:
                pass
        tracer.set_retention(False)
        with tracer.span("streamed"):
            with tracer.span("streamed-child"):
                pass
        assert tracer.finished_spans() == [kept, kept_child]
        assert tracer.spans == [kept, kept_child]
        assert tracer.roots() == [kept]
        assert tracer.children_of(kept) == [kept_child]

    def test_streaming_from_the_start_retains_nothing(self, clock):
        tracer = Tracer(clock, capture_real_time=False, retain=False)
        for _ in range(3):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        assert tracer.spans == [] and tracer.roots() == []

    def test_a_sink_may_record_a_trace_of_its_own(self, tracer):
        with tracer.span("kept"):
            pass
        tracer.set_retention(False)
        seen = []

        def sink(trace):
            seen.append([span.name for span in trace])
            if len(seen) == 1:
                with tracer.span("from-sink"):
                    pass

        tracer.add_trace_sink(sink)
        with tracer.span("streamed"):
            with tracer.span("child"):
                pass
        assert seen == [["child", "streamed"], ["from-sink"]]
        assert [span.name for span in tracer.spans] == ["kept"]
        assert [span.name for span in tracer.roots()] == ["kept"]

    def test_open_trace_is_readable_while_streaming(self, clock):
        tracer = Tracer(clock, capture_real_time=False, retain=False)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
            assert tracer.spans == [root, child]
            assert tracer.children_of(root) == [child]
        assert tracer.spans == []


class TestEvents:
    def test_event_attaches_to_innermost_span(self, tracer, clock):
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                clock.advance(3.0)
                tracer.event("retry", attempt=2)
        assert [event.name for event in inner.events] == ["retry"]
        assert inner.events[0].t_virtual_ms == 3.0
        assert inner.events[0].attributes == {"attempt": 2}

    def test_event_outside_any_span_is_dropped(self, tracer):
        tracer.event("orphan")
        assert tracer.spans == []


class TestReading:
    def test_finished_excludes_open_spans(self, tracer):
        open_span = tracer.start_span("open")
        with tracer.span("closed"):
            pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["closed"]
        tracer.end_span(open_span)

    def test_roots_and_children(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        assert [span.name for span in tracer.roots()] == ["root"]
        assert [span.name for span in tracer.children_of(root)] == ["child"]

    def test_reset_refuses_with_open_spans(self, tracer):
        span = tracer.start_span("open")
        with pytest.raises(ValueError):
            tracer.reset()
        tracer.end_span(span)
        tracer.reset()
        assert tracer.spans == []


class TestNoopTracer:
    def test_flag_and_nullity(self):
        assert NOOP_TRACER.enabled is False
        assert NOOP_TRACER.current_span is None
        with NOOP_TRACER.span("anything", key="value") as span:
            assert span is None
        NOOP_TRACER.event("dropped")
        NOOP_TRACER.add_trace_sink(print)  # accepted and ignored
        assert NOOP_TRACER.spans == []
        assert NOOP_TRACER.finished_spans() == []


class TestObservabilityHub:
    def test_disabled_hub_shares_the_noop_tracer(self):
        hub = Observability.disabled()
        assert hub.tracer is NOOP_TRACER
        assert hub.enabled is False
        assert hub.metrics is not None  # metrics stay live regardless

    def test_enabled_hub_records(self):
        hub = Observability(capture_real_time=False)
        assert hub.enabled is True
        with hub.tracer.span("op"):
            pass
        assert len(hub.tracer.finished_spans()) == 1
