"""Tests for the virtual clock and scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ClockError
from repro.util.clock import Scheduler, SimulatedClock


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now_ms == 0.0

    def test_starts_at_given_time(self):
        assert SimulatedClock(500.0).now_ms == 500.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            SimulatedClock(-1.0)

    def test_advance(self):
        clock = SimulatedClock()
        assert clock.advance(250.0) == 250.0
        assert clock.now_ms == 250.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ClockError):
            SimulatedClock().advance(-1.0)

    def test_advance_to(self):
        clock = SimulatedClock()
        clock.advance_to(100.0)
        assert clock.now_ms == 100.0

    def test_advance_to_past_rejected(self):
        clock = SimulatedClock(100.0)
        with pytest.raises(ClockError):
            clock.advance_to(50.0)

    def test_now_s(self):
        clock = SimulatedClock(1_500.0)
        assert clock.now_s() == 1.5

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=20))
    def test_advance_is_cumulative(self, deltas):
        clock = SimulatedClock()
        for delta in deltas:
            clock.advance(delta)
        assert clock.now_ms == pytest.approx(sum(deltas))


class TestScheduler:
    def test_call_later_runs_at_deadline(self, scheduler):
        fired = []
        scheduler.call_later(100.0, lambda: fired.append(scheduler.clock.now_ms))
        scheduler.run_for(99.0)
        assert fired == []
        scheduler.run_for(1.0)
        assert fired == [100.0]

    def test_call_at_absolute(self, scheduler):
        fired = []
        scheduler.call_at(50.0, lambda: fired.append(True))
        scheduler.run_until(50.0)
        assert fired == [True]

    def test_call_at_past_rejected(self, scheduler):
        scheduler.clock.advance(10.0)
        with pytest.raises(ClockError):
            scheduler.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self, scheduler):
        with pytest.raises(ClockError):
            scheduler.call_later(-1.0, lambda: None)

    def test_fifo_order_for_same_instant(self, scheduler):
        order = []
        scheduler.call_at(10.0, lambda: order.append("a"))
        scheduler.call_at(10.0, lambda: order.append("b"))
        scheduler.call_at(10.0, lambda: order.append("c"))
        scheduler.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_time_order(self, scheduler):
        order = []
        scheduler.call_at(30.0, lambda: order.append("late"))
        scheduler.call_at(10.0, lambda: order.append("early"))
        scheduler.run_until(100.0)
        assert order == ["early", "late"]

    def test_cancel_prevents_firing(self, scheduler):
        fired = []
        task = scheduler.call_later(10.0, lambda: fired.append(True))
        task.cancel()
        scheduler.run_for(20.0)
        assert fired == []

    def test_periodic_fires_repeatedly(self, scheduler):
        fired = []
        scheduler.call_every(10.0, lambda: fired.append(scheduler.clock.now_ms))
        scheduler.run_for(35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_periodic_initial_delay(self, scheduler):
        fired = []
        scheduler.call_every(10.0, lambda: fired.append(scheduler.clock.now_ms), initial_delay_ms=3.0)
        scheduler.run_for(25.0)
        assert fired == [3.0, 13.0, 23.0]

    def test_periodic_cancel_stops_series(self, scheduler):
        fired = []
        task = scheduler.call_every(10.0, lambda: fired.append(True))
        scheduler.run_for(25.0)
        task.cancel()
        scheduler.run_for(50.0)
        assert len(fired) == 2

    def test_periodic_zero_period_rejected(self, scheduler):
        with pytest.raises(ClockError):
            scheduler.call_every(0.0, lambda: None)

    def test_callback_scheduling_more_work(self, scheduler):
        fired = []

        def first():
            fired.append("first")
            scheduler.call_later(5.0, lambda: fired.append("second"))

        scheduler.call_later(10.0, first)
        scheduler.run_for(20.0)
        assert fired == ["first", "second"]

    def test_callback_advancing_clock_does_not_break_run(self, scheduler):
        # Callbacks may charge virtual latency synchronously.
        scheduler.call_later(10.0, lambda: scheduler.clock.advance(500.0))
        scheduler.run_for(20.0)
        assert scheduler.clock.now_ms == 510.0

    def test_run_until_past_rejected(self, scheduler):
        scheduler.clock.advance(100.0)
        with pytest.raises(ClockError):
            scheduler.run_until(50.0)

    def test_run_returns_executed_count(self, scheduler):
        scheduler.call_later(1.0, lambda: None)
        scheduler.call_later(2.0, lambda: None)
        assert scheduler.run_for(10.0) == 2

    def test_pending_count(self, scheduler):
        task = scheduler.call_later(10.0, lambda: None)
        scheduler.call_later(20.0, lambda: None)
        assert scheduler.pending_count() == 2
        task.cancel()
        assert scheduler.pending_count() == 1

    def test_next_deadline(self, scheduler):
        assert scheduler.next_deadline_ms() is None
        scheduler.call_later(42.0, lambda: None)
        assert scheduler.next_deadline_ms() == 42.0

    def test_drain_runs_everything(self, scheduler):
        fired = []
        scheduler.call_later(5.0, lambda: fired.append(1))
        scheduler.call_later(500.0, lambda: fired.append(2))
        scheduler.drain()
        assert fired == [1, 2]

    def test_drain_guards_against_periodic_runaway(self, scheduler):
        scheduler.call_every(1.0, lambda: None)
        with pytest.raises(ClockError):
            scheduler.drain(max_tasks=100)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=1, max_size=30))
    def test_tasks_fire_in_nondecreasing_time_order(self, delays):
        scheduler = Scheduler()
        fire_times = []
        for delay in delays:
            scheduler.call_later(delay, lambda: fire_times.append(scheduler.clock.now_ms))
        scheduler.run_until(max(delays) + 1.0)
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)

    def test_fifo_at_one_instant_across_rearms_and_one_shots(self, scheduler):
        # A periodic task re-arms (taking a fresh sequence number) before
        # its callback runs, so at t=20 it queues behind the one-shot
        # scheduled at t=0 and ahead of the one-shot its callback adds.
        order = []

        def periodic_a():
            order.append(("a", scheduler.clock.now_ms))
            if scheduler.clock.now_ms == 10.0:
                scheduler.call_at(20.0, lambda: order.append(("y", scheduler.clock.now_ms)))

        scheduler.call_every(10.0, periodic_a)
        scheduler.call_at(20.0, lambda: order.append(("x", scheduler.clock.now_ms)))
        scheduler.call_every(10.0, lambda: order.append(("b", scheduler.clock.now_ms)))
        scheduler.run_until(20.0)
        assert order == [
            ("a", 10.0), ("b", 10.0),
            ("x", 20.0), ("a", 20.0), ("y", 20.0), ("b", 20.0),
        ]

    def test_periodic_task_cancelling_itself_in_callback(self, scheduler):
        fired = []
        handle = {}

        def once():
            fired.append(scheduler.clock.now_ms)
            handle["task"].cancel()

        handle["task"] = scheduler.call_every(10.0, once)
        assert scheduler.run_for(100.0) == 1
        assert fired == [10.0]
        assert scheduler.pending_count() == 0
        assert scheduler.next_deadline_ms() is None

    def test_integer_instant_leaves_clock_a_float(self, scheduler):
        seen = []
        scheduler.call_at(5, lambda: seen.append(scheduler.clock.now_ms))
        scheduler.call_every(7, lambda: seen.append(scheduler.clock.now_ms), initial_delay_ms=2)
        scheduler.run_until(10)
        assert seen == [2.0, 5.0, 9.0]
        assert all(type(now) is float for now in seen)
        assert type(scheduler.clock.now_ms) is float
