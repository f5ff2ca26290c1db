"""Virtual time for the simulated device and platforms.

Everything latency-bearing in the substrates (GPS fix acquisition, radio
round-trips, WebView polling timers) is expressed against a
:class:`SimulatedClock` so tests and benchmarks are deterministic and fast.
Real wall-clock time is used only to measure the M-Proxy layer's own Python
overhead in the Figure-10 benchmark.

Time is measured in **milliseconds** as a float, matching the units of the
paper's evaluation.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import ClockError


class SimulatedClock:
    """A monotonically-advancing virtual clock.

    The clock only moves when :meth:`advance` is called (usually indirectly
    through :meth:`Scheduler.run_until` / :meth:`Scheduler.run_for`).
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        if start_ms < 0:
            raise ClockError(f"clock cannot start at negative time {start_ms!r}")
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self._now_ms / 1000.0

    def advance(self, delta_ms: float) -> float:
        """Move time forward by ``delta_ms`` and return the new time."""
        if delta_ms < 0:
            raise ClockError(f"cannot advance clock by negative delta {delta_ms!r}")
        self._now_ms += delta_ms
        return self._now_ms

    def advance_to(self, when_ms: float) -> float:
        """Move time forward to the absolute instant ``when_ms``."""
        if when_ms < self._now_ms:
            raise ClockError(
                f"cannot move clock backwards from {self._now_ms} to {when_ms}"
            )
        self._now_ms = float(when_ms)
        return self._now_ms

    @contextlib.contextmanager
    def capture_charge(self) -> Iterator["ChargeCapture"]:
        """Measure the virtual time charged inside the block, then roll
        the clock back to the block's start.

        This is the concurrency runtime's parallel-lane facility: a
        worker shard executes a request (whose substrate charges advance
        this clock synchronously), reads the captured charge, and replays
        it on the shard's own lane — so K shards overlap in virtual time
        instead of serialising on the shared clock.  Tasks scheduled by
        side effects during the block keep their as-executed instants,
        which are always at or after the block's start, so causality on
        the scheduler heap is preserved.

        Captures may nest; each level rolls back to its own start.
        """
        start = self._now_ms
        capture = ChargeCapture()
        try:
            yield capture
        finally:
            capture.charge_ms = self._now_ms - start
            self._now_ms = start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedClock(now_ms={self._now_ms:.3f})"


class ChargeCapture:
    """Result box for :meth:`SimulatedClock.capture_charge`."""

    __slots__ = ("charge_ms",)

    def __init__(self) -> None:
        self.charge_ms = 0.0


@dataclass(eq=False)
class ScheduledTask:
    """A callback scheduled to run at a virtual instant.

    The scheduler's heap holds ``(when_ms, seq, task)`` entries, so tasks
    are ordered by (time, sequence) with the comparison done on plain
    tuples: tasks scheduled for the same instant run in FIFO order -- the
    property the platform event loops rely on for deterministic broadcast
    delivery.  ``when_ms`` and ``seq`` mirror the task's current entry.
    """

    when_ms: float
    seq: int
    callback: Callable[[], None]
    period_ms: Optional[float] = None
    cancelled: bool = False
    name: str = ""

    def cancel(self) -> None:
        """Prevent the task from firing (and from repeating, if periodic)."""
        self.cancelled = True


class Scheduler:
    """A deterministic event-driven scheduler over a :class:`SimulatedClock`.

    This is the single event loop shared by the device hardware and every
    platform substrate mounted on that device; sharing one loop is what
    makes cross-component timing (e.g. a GPS fix racing an expiration
    timer) reproducible.
    """

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self._heap: List[Tuple[float, int, ScheduledTask]] = []
        self._seq = itertools.count()
        #: The instant of the task being (or last) dispatched, or of the
        #: last ``run_until`` target: tasks due before it have run.  A
        #: synchronous charge moves the clock past it, not the dispatch, so
        #: what a periodic task keeps current is current only up to here.
        self.dispatched_ms = self.clock.now_ms

    def call_at(
        self,
        when_ms: float,
        callback: Callable[[], None],
        *,
        name: str = "",
    ) -> ScheduledTask:
        """Schedule ``callback`` at absolute virtual time ``when_ms``."""
        if when_ms < self.clock.now_ms:
            raise ClockError(
                f"cannot schedule task at {when_ms} before now {self.clock.now_ms}"
            )
        seq = next(self._seq)
        task = ScheduledTask(when_ms, seq, callback, name=name)
        heapq.heappush(self._heap, (when_ms, seq, task))
        return task

    def call_later(
        self,
        delay_ms: float,
        callback: Callable[[], None],
        *,
        name: str = "",
    ) -> ScheduledTask:
        """Schedule ``callback`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise ClockError(f"negative delay {delay_ms!r}")
        return self.call_at(self.clock.now_ms + delay_ms, callback, name=name)

    def call_every(
        self,
        period_ms: float,
        callback: Callable[[], None],
        *,
        initial_delay_ms: Optional[float] = None,
        name: str = "",
    ) -> ScheduledTask:
        """Schedule a periodic callback.

        The returned handle cancels the whole series.  The period applies
        from each firing instant (fixed-rate, not fixed-delay) — matching
        how platform polling timers behave.
        """
        if period_ms <= 0:
            raise ClockError(f"period must be positive, got {period_ms!r}")
        delay = period_ms if initial_delay_ms is None else initial_delay_ms
        task = self.call_later(delay, callback, name=name)
        task.period_ms = period_ms
        return task

    def pending_count(self) -> int:
        """Number of not-yet-cancelled tasks in the queue."""
        return sum(1 for _, _, task in self._heap if not task.cancelled)

    def next_deadline_ms(self) -> Optional[float]:
        """Virtual time of the earliest pending task, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def run_until(self, until_ms: float) -> int:
        """Run all tasks due up to (and including) ``until_ms``.

        Advances the clock task-by-task to each firing instant, then to
        ``until_ms``.  Returns the number of callbacks executed.  Callbacks
        may schedule further tasks; those run too if they fall in range.
        """
        clock = self.clock
        if until_ms < clock.now_ms:
            raise ClockError(
                f"cannot run until {until_ms}, now is {clock.now_ms}"
            )
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        seqs = self._seq
        executed = 0
        while heap:
            when_ms, _, task = heap[0]
            if task.cancelled:
                heappop(heap)
                continue
            if when_ms > until_ms:
                break
            heappop(heap)
            # The clock only moves forward: a callback may already have
            # charged it past this task's instant.
            if when_ms >= clock._now_ms:
                clock._now_ms = float(when_ms)
            self.dispatched_ms = when_ms
            period_ms = task.period_ms
            if period_ms is not None:
                # Re-arm before running so the callback can cancel itself.
                when_ms = task.when_ms = when_ms + period_ms
                seq = task.seq = next(seqs)
                heappush(heap, (when_ms, seq, task))
            task.callback()
            executed += 1
        # Callbacks may advance the clock themselves (e.g. synchronous
        # native-latency charges); never move it backwards.
        clock.advance_to(max(until_ms, clock.now_ms))
        self.dispatched_ms = until_ms
        return executed

    def run_for(self, delta_ms: float) -> int:
        """Run all tasks due within the next ``delta_ms`` of virtual time."""
        return self.run_until(self.clock.now_ms + delta_ms)

    def drain(self, *, max_tasks: int = 100_000) -> int:
        """Run until no tasks remain (periodic tasks must be cancelled first).

        ``max_tasks`` guards against runaway periodic series.
        """
        executed = 0
        while True:
            deadline = self.next_deadline_ms()
            if deadline is None:
                return executed
            if executed >= max_tasks:
                raise ClockError(
                    f"drain exceeded {max_tasks} tasks; a periodic task is "
                    "probably still armed"
                )
            executed += self.run_until(deadline)
