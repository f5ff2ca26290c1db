"""Tests for the GPS receiver and trajectory playback."""

import pytest
from hypothesis import given, strategies as st

from repro.device.gps import GpsReceiver, Trajectory, Waypoint, TOPIC_FIX, TOPIC_STATE
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
