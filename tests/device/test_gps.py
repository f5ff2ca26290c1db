"""Tests for the GPS receiver and trajectory playback."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.device.gps import (
    GAUSS_Z_MAX,
    TOPIC_FIX,
    TOPIC_STATE,
    GpsReceiver,
    Trajectory,
    Waypoint,
)
from repro.errors import ConfigurationError, SimulationError
from repro.util.geo import GeoPoint, destination_point, interpolate


def _line_trajectory():
    start = GeoPoint(0.0, 0.0)
    end = destination_point(0.0, 0.0, 90.0, 1_000.0)
    return Trajectory([Waypoint(0.0, start), Waypoint(10_000.0, end)])


class TestTrajectory:
    def test_requires_waypoints(self):
        with pytest.raises(ConfigurationError):
            Trajectory([])

    def test_duplicate_times_rejected(self):
        point = GeoPoint(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            Trajectory([Waypoint(5.0, point), Waypoint(5.0, point)])

    def test_waypoints_sorted(self):
        a, b = GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0)
        trajectory = Trajectory([Waypoint(10.0, b), Waypoint(0.0, a)])
        assert trajectory.waypoints[0].point == a

    def test_holds_before_start(self):
        trajectory = _line_trajectory()
        assert trajectory.position_at(-100.0) == trajectory.waypoints[0].point

    def test_holds_after_end(self):
        trajectory = _line_trajectory()
        assert trajectory.position_at(1e9) == trajectory.waypoints[-1].point

    def test_interpolates_midway(self):
        trajectory = _line_trajectory()
        start = trajectory.waypoints[0].point
        midpoint = trajectory.position_at(5_000.0)
        distance = start.distance_to_m(midpoint)
        assert distance == pytest.approx(500.0, rel=0.01)

    def test_speed_on_leg(self):
        trajectory = _line_trajectory()  # 1000 m in 10 s
        assert trajectory.speed_at(5_000.0) == pytest.approx(100.0, rel=0.01)

    def test_speed_zero_when_parked(self):
        trajectory = _line_trajectory()
        assert trajectory.speed_at(20_000.0) == 0.0

    def test_single_waypoint_is_parked(self):
        trajectory = Trajectory([Waypoint(0.0, GeoPoint(5.0, 5.0))])
        assert trajectory.position_at(1_000.0) == GeoPoint(5.0, 5.0)
        assert trajectory.speed_at(500.0) == 0.0


def _scan_position(waypoints, t_ms):
    """Reference: the first leg whose closed interval holds ``t_ms``."""
    if t_ms <= waypoints[0].t_ms:
        return waypoints[0].point
    if t_ms >= waypoints[-1].t_ms:
        return waypoints[-1].point
    for earlier, later in zip(waypoints, waypoints[1:]):
        if earlier.t_ms <= t_ms <= later.t_ms:
            fraction = (t_ms - earlier.t_ms) / (later.t_ms - earlier.t_ms)
            return interpolate(earlier.point, later.point, fraction)
    raise AssertionError("no leg found")


def _scan_speed(waypoints, t_ms):
    """Reference: the first leg whose half-open interval holds ``t_ms``,
    with one haversine per query."""
    if t_ms < waypoints[0].t_ms or t_ms >= waypoints[-1].t_ms:
        return 0.0
    for earlier, later in zip(waypoints, waypoints[1:]):
        if earlier.t_ms <= t_ms < later.t_ms:
            distance = earlier.point.distance_to_m(later.point)
            duration_s = (later.t_ms - earlier.t_ms) / 1000.0
            return distance / duration_s if duration_s > 0 else 0.0
    return 0.0


_points = st.builds(
    GeoPoint,
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
    st.floats(min_value=-100.0, max_value=5_000.0),
)


@st.composite
def _paths(draw):
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            min_size=1, max_size=20, unique=True,
        )
    )
    waypoints = [Waypoint(t, draw(_points)) for t in times]
    queries = [min(times) - 1.0, min(times) - 500.0, max(times) + 1.0, 2e7]
    queries += times  # every exact waypoint instant
    queries += draw(st.lists(st.floats(min_value=-1e3, max_value=1.1e7), max_size=20))
    ordered = sorted(times)
    queries += [(a + b) / 2.0 for a, b in zip(ordered, ordered[1:])]
    return waypoints, queries


class TestTrajectoryIndex:
    """Bisection picks exactly the leg the linear scan does."""

    @given(_paths())
    def test_matches_linear_scan_exactly(self, path):
        waypoints, queries = path
        trajectory = Trajectory(waypoints)
        ordered = trajectory.waypoints
        for t_ms in queries:
            assert trajectory.position_at(t_ms) == _scan_position(ordered, t_ms)
            assert trajectory.speed_at(t_ms) == _scan_speed(ordered, t_ms)

    def test_interior_waypoint_uses_leg_ending_there_for_position(self):
        # Chosen so that interpolating to fraction 1.0 does not land
        # exactly on ``b``: the leg choice shows in the low bits.
        a = GeoPoint(-75.92866224104627, 14.080240749788828)
        b = GeoPoint(70.2638660445617, -40.39055918600778, 21.659939713061338)
        c = GeoPoint(70.3, -40.3)
        waypoints = [Waypoint(0.0, a), Waypoint(3_000.0, b), Waypoint(7_000.0, c)]
        trajectory = Trajectory(waypoints)
        assert interpolate(a, b, 1.0) != b
        assert trajectory.position_at(3_000.0) == interpolate(a, b, 1.0)
        assert trajectory.speed_at(3_000.0) == b.distance_to_m(c) / 4.0


class TestGpsReceiver:
    def _receiver(self, scheduler, bus, **kwargs):
        receiver = GpsReceiver(scheduler, bus, _line_trajectory(), **kwargs)
        return receiver

    def test_no_fix_before_power_on(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus)
        scheduler.run_for(10_000.0)
        assert receiver.last_fix is None

    def test_power_on_without_trajectory_fails(self, scheduler, bus):
        receiver = GpsReceiver(scheduler, bus)
        with pytest.raises(SimulationError):
            receiver.power_on()

    def test_time_to_first_fix(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=2_000.0)
        receiver.power_on()
        scheduler.run_for(1_999.0)
        assert receiver.last_fix is None
        scheduler.run_for(1.0)
        assert receiver.last_fix is not None

    def test_periodic_fixes_published(self, scheduler, bus):
        fixes = []
        bus.subscribe(TOPIC_FIX, lambda t, fix: fixes.append(fix))
        receiver = self._receiver(
            scheduler, bus, fix_interval_ms=1_000.0, time_to_first_fix_ms=0.0
        )
        receiver.power_on()
        scheduler.run_for(5_500.0)
        assert len(fixes) == 6  # t=0 (ttff 0) then every second

    def test_fix_noise_bounded(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, accuracy_m=5.0, seed=3)
        receiver.power_on()
        scheduler.run_for(30_000.0)
        fix = receiver.last_fix
        truth = receiver.ground_truth()
        assert fix.point.distance_to_m(truth) < 50.0  # well within 10 sigma

    def test_power_off_stops_fixes(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=0.0)
        receiver.power_on()
        scheduler.run_for(3_000.0)
        count_before = len(bus.published_topics)
        receiver.power_off()
        scheduler.run_for(5_000.0)
        topics_after = bus.published_topics[count_before:]
        assert all(t != TOPIC_FIX for t in topics_after)

    def test_power_cycle_is_idempotent(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus)
        receiver.power_on()
        receiver.power_on()  # no double-arm
        scheduler.run_for(5_000.0)
        receiver.power_off()
        receiver.power_off()
        assert not receiver.powered

    def test_state_topic_published(self, scheduler, bus):
        states = []
        bus.subscribe(TOPIC_STATE, lambda t, s: states.append(s))
        receiver = self._receiver(scheduler, bus)
        receiver.power_on()
        receiver.power_off()
        assert states == ["on", "off"]

    def test_fix_carries_speed(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=0.0)
        receiver.power_on()
        scheduler.run_for(5_000.0)
        assert receiver.last_fix.speed_mps == pytest.approx(100.0, rel=0.05)

    def test_invalid_intervals_rejected(self, scheduler, bus):
        with pytest.raises(ConfigurationError):
            GpsReceiver(scheduler, bus, _line_trajectory(), fix_interval_ms=0.0)
        with pytest.raises(ConfigurationError):
            GpsReceiver(scheduler, bus, _line_trajectory(), time_to_first_fix_ms=-1.0)

    def test_set_trajectory_swaps_path(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=0.0)
        receiver.power_on()
        scheduler.run_for(2_000.0)
        parked = Trajectory([Waypoint(0.0, GeoPoint(50.0, 50.0))])
        receiver.set_trajectory(parked)
        scheduler.run_for(2_000.0)
        assert receiver.last_fix.point.distance_to_m(GeoPoint(50.0, 50.0)) < 100.0


class _ConstantRandom(random.Random):
    """A stream whose ``random()`` always returns ``value``."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def random(self):
        return self.value


class TestNoiseBound:
    """Skipped ticks are safe only if no fix strays past the noise bound."""

    def test_gauss_is_bounded_by_its_extreme_uniform(self):
        assert GAUSS_Z_MAX == pytest.approx(8.5717, abs=1e-4)
        assert _ConstantRandom(0.0).gauss(0.0, 1.0) == 0.0
        extreme = _ConstantRandom(1.0 - 2.0 ** -53).gauss(0.0, 1.0)
        assert abs(extreme) <= GAUSS_Z_MAX
        assert abs(extreme) == pytest.approx(GAUSS_Z_MAX)

    @given(st.floats(min_value=0.0, max_value=1.0 - 2.0 ** -53))
    def test_no_uniform_exceeds_it(self, value):
        rng = _ConstantRandom(value)
        assert abs(rng.gauss(0.0, 1.0)) <= GAUSS_Z_MAX
        assert abs(rng.gauss(0.0, 1.0)) <= GAUSS_Z_MAX

    def test_bound_covers_an_extreme_fix(self, scheduler, bus):
        parked = Trajectory([Waypoint(0.0, GeoPoint(28.6, 77.2))])
        receiver = GpsReceiver(scheduler, bus, parked, time_to_first_fix_ms=0.0)
        receiver._rng = _ConstantRandom(1.0 - 2.0 ** -53)
        receiver.power_on()
        offset = receiver.last_fix.point.distance_to_m(receiver.ground_truth())
        assert 0.99 * GAUSS_Z_MAX * 5.0 < offset <= receiver.noise_bound_m
        assert receiver.noise_bound_m == pytest.approx(GAUSS_Z_MAX * 5.0 * 2 ** 0.5, rel=0.02)

    def test_one_tick_of_noise_is_128_bits(self):
        drawn, skipped = random.Random(7), random.Random(7)
        for _ in range(3):
            drawn.gauss(0.0, 5.0), drawn.gauss(0.0, 5.0)
        skipped.getrandbits(3 * 128)
        assert drawn.getstate() == skipped.getstate()


class TestSpeedBound:
    def test_dominates_a_long_diagonal_leg(self):
        """Interpolation is linear in degrees: near the equator end of a
        long diagonal leg the position moves faster than the leg's
        haversine speed, and the bound still covers it."""
        start, end = GeoPoint(0.0, 0.0), GeoPoint(60.0, 60.0)
        trajectory = Trajectory([Waypoint(0.0, start), Waypoint(1_000_000.0, end)])
        steps = [
            trajectory.position_at(t_ms).distance_to_m(trajectory.position_at(t_ms + 1_000.0))
            for t_ms in range(0, 1_000_000, 10_000)
        ]
        assert max(steps) > trajectory.speed_at(0.0) * 1.1
        assert max(steps) <= trajectory.speed_bound_after(0.0)

    def test_parked_path_has_no_speed(self):
        trajectory = _line_trajectory()  # arrives at 10 s
        assert trajectory.speed_bound_after(0.0) > 0.0
        assert trajectory.speed_bound_after(10_000.0) == 0.0
        assert Trajectory([Waypoint(0.0, GeoPoint(1.0, 1.0))]).speed_bound_after(0.0) == 0.0

    def test_only_later_legs_count(self):
        a = GeoPoint(0.0, 0.0)
        b = destination_point(0.0, 0.0, 90.0, 10_000.0)
        c = destination_point(b.latitude, b.longitude, 90.0, 100.0)
        trajectory = Trajectory([Waypoint(0.0, a), Waypoint(10_000.0, b), Waypoint(20_000.0, c)])
        assert trajectory.speed_bound_after(5_000.0) == pytest.approx(1_000.0, rel=0.01)
        assert trajectory.speed_bound_after(10_000.0) == pytest.approx(10.0, rel=0.01)


class TestVerdictHorizon:
    def _receiver(self, scheduler, bus, trajectory):
        return GpsReceiver(scheduler, bus, trajectory)

    def test_distance_over_speed(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, _line_trajectory())  # ~100 m/s east
        centre = destination_point(0.0, 0.0, 0.0, 1_000.0)  # 1 km north
        until = receiver.verdict_holds_until_ms(0.0, centre.latitude, centre.longitude, 200.0, False)
        margin = 1_000.0 - 200.0 - receiver.noise_bound_m
        speed = receiver._trajectory.speed_bound_after(0.0)
        assert until == pytest.approx(margin / speed * 1_000.0)

    def test_next_tick_near_the_boundary_or_on_the_wrong_side(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, _line_trajectory())
        near = destination_point(0.0, 0.0, 0.0, 230.0)
        assert receiver.verdict_holds_until_ms(5.0, near.latitude, near.longitude, 200.0, False) == 5.0
        far = destination_point(0.0, 0.0, 0.0, 1_000.0)
        assert receiver.verdict_holds_until_ms(5.0, far.latitude, far.longitude, 200.0, True) == 5.0

    def test_parked_receiver_never_needs_a_fix(self, scheduler, bus):
        parked = Trajectory([Waypoint(0.0, GeoPoint(0.0, 0.0))])
        receiver = self._receiver(scheduler, bus, parked)
        far = destination_point(0.0, 0.0, 0.0, 1_000.0)
        assert receiver.verdict_holds_until_ms(0.0, far.latitude, far.longitude, 200.0, False) == math.inf
        assert receiver.verdict_holds_until_ms(0.0, 0.0, 0.0, 200.0, True) == math.inf


class _Consumer:
    def __init__(self, every_ms):
        self.every_ms = every_ms
        self.fixes = []

    def on_fix(self, fix):
        self.fixes.append(fix.timestamp_ms)

    def next_fix_needed_ms(self, ref_ms):
        return ref_ms + self.every_ms


class TestDemand:
    def _receiver(self, scheduler, bus):
        return GpsReceiver(scheduler, bus, _line_trajectory(), time_to_first_fix_ms=0.0)

    def test_delivers_only_the_ticks_a_consumer_needs(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus)
        consumer = _Consumer(4_500.0)
        receiver.attach(consumer)
        receiver.power_on()
        executed = scheduler.run_for(20_000.0)
        assert consumer.fixes == [5_000.0, 10_000.0, 15_000.0, 20_000.0]
        # Per needed fix, one wake at the need instant settles the ticks
        # before it and one at the first tick after delivers it.
        assert executed == 2 * len(consumer.fixes)

    def test_no_consumer_no_wakes_yet_every_fix_readable(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus)
        receiver.power_on()
        assert scheduler.run_for(20_500.0) == 0
        assert receiver.last_fix.timestamp_ms == 20_000.0

    def test_a_bus_subscriber_needs_every_tick(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus)
        receiver.power_on()
        scheduler.run_for(2_500.0)  # ticks 0, 1 s and 2 s settle unseen
        fixes = []
        subscription = bus.subscribe(TOPIC_FIX, lambda topic, fix: fixes.append(fix.timestamp_ms))
        scheduler.run_for(2_000.0)
        subscription.unsubscribe()
        scheduler.run_for(2_000.0)
        assert fixes == [3_000.0, 4_000.0]

    def test_a_gps_fault_rule_needs_every_tick(self, scheduler, bus):
        from repro.faults import FaultInjector, FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule("gps.fix", "lost", 0.5, start_ms=1e9),))
        receiver = GpsReceiver(
            scheduler, bus, _line_trajectory(), time_to_first_fix_ms=0.0,
            injector=FaultInjector(plan, scheduler.clock),
        )
        receiver.power_on()
        assert scheduler.run_for(4_500.0) == 5
