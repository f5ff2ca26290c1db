"""Tracers: the span factory threaded through the M-Proxy stack.

Two implementations share one duck type:

* :class:`Tracer` — records hierarchical spans stamped with virtual and
  real time.  Single-threaded by design (the whole simulation is), so
  the "current span" is a plain stack, not a context variable.
* :class:`NoopTracer` — the default attached to every device.  Its
  ``enabled`` flag is ``False`` and every instrumentation site checks
  that flag *before* doing any span work, which is what keeps the
  Figure-10 invocation path at its pre-observability cost.

Determinism: span and trace ids are sequential integers; virtual
timestamps come from the bound :class:`~repro.util.clock.SimulatedClock`.
The only wall-clock read in the subsystem is the per-span real-time
stamp below, which never feeds back into simulation behaviour and is
excluded from deterministic exports.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.span import Span, _clean_attributes
from repro.util.clock import SimulatedClock


def _real_now_ms() -> float:
    """Real-time stamp for span profiling (never drives simulation)."""
    return time.perf_counter() * 1_000.0  # wall-clock: measurement


class NoopTracer:
    """The zero-cost tracer: every operation is a no-op.

    Instrumentation sites should guard on :attr:`enabled` and skip span
    construction entirely; the methods below exist so that code holding
    a tracer reference never needs an ``is None`` dance.
    """

    enabled = False

    @property
    def current_span(self) -> None:
        return None

    @contextlib.contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[None]:
        yield None

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def bind_clock(self, clock: SimulatedClock) -> None:
        pass

    def add_sink(self, sink) -> None:
        pass

    def add_trace_sink(self, sink) -> None:
        pass

    retaining = False

    def set_retention(self, retain: bool) -> None:
        pass

    @property
    def spans(self) -> List[Span]:
        return []

    def finished_spans(self) -> List[Span]:
        return []

    def reset(self) -> None:
        pass


#: Shared no-op instance (stateless, safe to share across devices).
NOOP_TRACER = NoopTracer()


class _SpanScope:
    """The ``with tracer.span(...)`` scope: opens through
    :meth:`Tracer.start_span` on entry and closes through
    :meth:`Tracer.end_span` on exit, marking an escaping exception on the
    span before it propagates."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        span = self._span = self._tracer.start_span(self._name, **self._attributes)
        return span

    def __exit__(self, exc_type, exc, traceback) -> bool:
        span = self._span
        if exc_type is not None:
            span.mark_error(exc)
        self._tracer.end_span(span)
        return False


class Tracer:
    """Records hierarchical spans against a virtual clock.

    Parameters
    ----------
    clock:
        The virtual clock stamping span boundaries.  May be bound later
        (``bind_clock``) — a device adopts the tracer during
        construction; until then virtual stamps read 0.0.
    capture_real_time:
        When ``False``, real-time stamps are recorded as 0.0 — useful
        for tests that want fully constant span objects.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        *,
        capture_real_time: bool = True,
        retain: bool = True,
    ) -> None:
        self._clock = clock
        self._capture_real_time = capture_real_time
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._sinks: List[Callable[[Span], None]] = []
        self._trace_sinks: List[Callable[[List[Span]], None]] = []
        #: Finished spans of the open trace in completion order, collected
        #: only while trace sinks are registered.
        self._trace: List[Span] = []
        #: Index in ``_spans`` of the open trace's root.
        self._trace_start = 0
        #: Streaming mode (``retain=False``): spans flow to sinks and are
        #: discarded once their trace completes — the telemetry pipeline's
        #: bounded ring becomes the only retention, keeping the tracer
        #: O(deepest trace) instead of O(run length).
        self._retain = retain
        # Read-path indices: children by parent id, roots and finished
        # spans in completion order, plus memoized snapshot lists so the
        # analyze/ modules never rescan ``_spans`` per call.
        self._children: dict = {}
        self._roots: List[Span] = []
        self._spans_cache: Optional[List[Span]] = None
        self._finished_cache: Optional[List[Span]] = None

    def bind_clock(self, clock: SimulatedClock) -> None:
        """Adopt the device's virtual clock (done by ``MobileDevice``)."""
        self._clock = clock

    # -- clock reads ---------------------------------------------------------

    def _virtual_now(self) -> float:
        return self._clock.now_ms if self._clock is not None else 0.0

    def _real_now(self) -> float:
        return _real_now_ms() if self._capture_real_time else 0.0

    # -- span lifecycle ------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span as a child of the current span (manual lifecycle;
        prefer the :meth:`span` context manager)."""
        stack = self._stack
        if stack:
            parent = stack[-1]
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = next(self._trace_ids)
            parent_id = None
            self._trace_start = len(self._spans)
        clock = self._clock
        span = Span(
            name,
            trace_id,
            next(self._span_ids),
            parent_id,
            clock.now_ms if clock is not None else 0.0,
            _real_now_ms() if self._capture_real_time else 0.0,
            attributes=_clean_attributes(attributes) if attributes else None,
        )
        self._spans.append(span)
        stack.append(span)
        self._spans_cache = None
        if parent_id is not None:
            children = self._children.get(parent_id)
            if children is None:
                self._children[parent_id] = [span]
            else:
                children.append(span)
        else:
            self._roots.append(span)
        return span

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        """Register a callable invoked with every span as it finishes.

        Sinks are how the flight recorder shadows the tracer without the
        tracer knowing about it; with no sinks registered the per-span
        cost is one truthiness check.
        """
        self._sinks.append(sink)

    def add_trace_sink(self, sink: Callable[[List[Span]], None]) -> None:
        """Register a callable invoked once per completed trace with its
        finished spans in completion order (the root last).

        When a root closes, the per-span sinks see it first, then every
        trace sink in registration order.  A sink added while a trace is
        open receives only the spans that finish after it was added.
        """
        self._trace_sinks.append(sink)

    def end_span(self, span: Span) -> None:
        """Close ``span`` (and anything left open beneath it).

        Raises ``ValueError`` without touching any span when ``span`` is
        not open on this tracer.
        """
        stack = self._stack
        if not stack or stack[-1] is not span:
            if not any(open_span is span for open_span in stack):
                raise ValueError(f"span {span.name!r} is not open on this tracer")
        sinks = self._sinks
        collect = bool(self._trace_sinks)
        while True:
            top = stack.pop()
            clock = self._clock
            top.end_virtual_ms = clock.now_ms if clock is not None else 0.0
            top.end_real_ms = _real_now_ms() if self._capture_real_time else 0.0
            self._finished_cache = None
            if sinks:
                for sink in sinks:
                    sink(top)
            if collect:
                self._trace.append(top)
            if top.parent_id is None:
                self._complete_trace()
            if top is span:
                return

    def _complete_trace(self) -> None:
        """The open trace's root just closed: hand the trace to the trace
        sinks, then, when streaming, drop its spans."""
        # Traces never interleave on the single span stack, so the trace
        # is everything recorded since its root opened (read before the
        # sinks run: a sink may record a trace of its own).
        start = self._trace_start
        if self._trace_sinks:
            trace, self._trace = self._trace, []
            for sink in self._trace_sinks:
                sink(trace)
        if self._retain:
            return
        # Spans retained before streaming was switched on stay readable.
        if start == 0:
            self._spans.clear()
            self._children.clear()
            self._roots.clear()
        else:
            for dropped in self._spans[start:]:
                self._children.pop(dropped.span_id, None)
            del self._spans[start:]
            self._roots.pop()
        self._spans_cache = None
        self._finished_cache = None

    def span(self, name: str, **attributes: Any) -> _SpanScope:
        """Open a child span for the duration of the ``with`` block.

        An escaping exception marks the span's status as ``error`` (with
        the exception text) and is re-raised untouched.
        """
        return _SpanScope(self, name, attributes)

    def event(self, name: str, **attributes: Any) -> None:
        """Attach a virtual-time-stamped event to the current span.

        Outside any span the event is dropped — instrumentation sites
        fire unconditionally and rely on this to stay quiet when no
        invocation is in flight.
        """
        span = self.current_span
        if span is not None:
            span.add_event(name, self._virtual_now(), **attributes)

    # -- reading -------------------------------------------------------------

    @property
    def retaining(self) -> bool:
        """Whether finished traces stay readable on the tracer (see
        ``retain=``); streaming tracers only feed their sinks."""
        return self._retain

    def set_retention(self, retain: bool) -> None:
        """Flip streaming mode (the telemetry pipeline does this when it
        attaches with ``streaming=True``).  Takes effect at the next
        trace completion, which drops only that trace's spans;
        already-retained spans stay readable."""
        self._retain = retain

    @property
    def spans(self) -> List[Span]:
        """Every span started so far, in start order (memoized — the
        snapshot list is rebuilt only after new spans arrive)."""
        if self._spans_cache is None:
            self._spans_cache = list(self._spans)
        return self._spans_cache

    def finished_spans(self) -> List[Span]:
        """Finished spans in start order (memoized — rebuilt only after
        a span actually finishes, not on every access)."""
        if self._finished_cache is None:
            self._finished_cache = [span for span in self._spans if span.finished]
        return self._finished_cache

    def roots(self) -> List[Span]:
        """Trace roots in start order (maintained, not rescanned)."""
        return list(self._roots)

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span`` via the parent-id index (O(k),
        not O(n) — the scenario recorder walks whole span forests)."""
        return list(self._children.get(span.span_id, ()))

    def reset(self) -> None:
        """Drop recorded spans (id counters keep running — determinism
        depends on the construction point, not on resets)."""
        if self._stack:
            raise ValueError("cannot reset while spans are open")
        self._spans.clear()
        self._children.clear()
        self._roots.clear()
        self._spans_cache = None
        self._finished_cache = None
