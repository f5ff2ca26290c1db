"""The demand-driven GPS receiver against the frozen eager one.

Each example builds two worlds from one drawn script: an android, an s60
and a webview handset with the real receiver, and the same three with the
eager receiver of ``eager_gps.py``, which delivers every tick.  The script
draws a trajectory (1-4 legs, parked to 40 m/s, long diagonal legs
included), proximity alerts through the uniform Location proxies (android
alerts with and without expiration, s60 one-shot registrations under the
binding's re-arming machine, webview alerts riding on android), alert
removals, read instants, trajectory swaps and power cycles.  The handsets
keep their default native latencies (android getLocation 15.5 ms, s60
140.8 ms, ...), so reads and registrations run inside calls that charge
the clock past ticks the scheduler has not dispatched yet.  The eager
receiver stamps a tick whose timer runs late at its nominal instant, the
one declared difference (see ``eager_gps.py``).

The two worlds must agree exactly: each alert's proximity events at the
same instants with the same locations, the same fix and proxy location on
every read, and the same battery drain report and level.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workforce import scenario
from repro.core.proxies import create_proxy
from repro.core.proxies.location.webview import LocationProxyJs, install_location_wrapper
from repro.core.proxy.callbacks import ProximityListener
from repro.device.gps import Trajectory, Waypoint
from repro.util.geo import GeoPoint, destination_point
from tests.device.eager_gps import EagerGpsReceiver

BASE = GeoPoint(28.6, 77.2)
PLATFORMS = ("android", "s60", "webview")
END_MS = 240_000.0



@st.composite
def trajectories(draw):
    """1-4 legs from ``BASE``; each parked or up to 40 m/s, some long and
    diagonal (where linear-in-degrees speed exceeds the haversine one)."""
    t_ms = draw(st.floats(min_value=0.0, max_value=30_000.0))
    point = BASE
    waypoints = [Waypoint(t_ms, point)]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        diagonal = draw(st.booleans())
        duration_ms = draw(
            st.floats(min_value=120_000.0, max_value=200_000.0)
            if diagonal
            else st.floats(min_value=2_000.0, max_value=90_000.0)
        )
        bearing = (
            draw(st.sampled_from((45.0, 135.0, 225.0, 315.0)))
            if diagonal
            else draw(st.floats(min_value=0.0, max_value=360.0))
        )
        speed = draw(st.sampled_from((0.0, 40.0)) | st.floats(min_value=0.0, max_value=40.0))
        point = destination_point(
            point.latitude, point.longitude, bearing, speed * duration_ms / 1000.0
        )
        t_ms += duration_ms
        waypoints.append(Waypoint(t_ms, point))
    return Trajectory(waypoints)


@st.composite
def scripts(draw):
    """The initial trajectory and a time-ordered list of operations."""
    trajectory = draw(trajectories())
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        at_ms = draw(st.floats(min_value=0.0, max_value=END_MS))
        kind = draw(st.sampled_from(("alert", "alert", "alert", "remove", "read", "swap", "off")))
        if kind == "alert":
            ops.append((at_ms, kind, (
                draw(st.sampled_from(PLATFORMS)),
                draw(st.floats(min_value=0.0, max_value=END_MS)),  # near truth at this instant
                draw(st.floats(min_value=0.0, max_value=360.0)),
                # truth's distance from the boundary then, in metres:
                # within a few sigma of the noise, or anywhere
                draw(st.sampled_from((-12.0, -7.0, 7.0, 12.0)) | st.floats(-1_500.0, 1_500.0)),
                draw(st.sampled_from((30.0, 100.0)) | st.floats(min_value=20.0, max_value=2_000.0)),
                draw(st.sampled_from((-1.0,)) | st.floats(min_value=1.0, max_value=150.0)),
            )))
        elif kind == "remove":
            ops.append((at_ms, kind, (draw(st.sampled_from(PLATFORMS)), draw(st.integers(0, 5)))))
        elif kind == "swap":
            ops.append((at_ms, kind, draw(trajectories())))
        elif kind == "off":
            ops.append((at_ms, kind, None))
            ops.append((at_ms + draw(st.floats(min_value=0.0, max_value=60_000.0)), "on", None))
        else:
            ops.append((at_ms, kind, None))
    reads = draw(st.lists(st.floats(min_value=0.0, max_value=END_MS), max_size=6))
    ops.extend((at_ms, "read", None) for at_ms in reads)
    ops.sort(key=lambda op: op[0])
    return trajectory, ops


class _Recorder(ProximityListener):
    def __init__(self, log, handset, alert_id):
        self._log = log
        self._handset = handset
        self._alert_id = alert_id

    def proximity_event(self, ref_lat, ref_lon, ref_alt, current, entering):
        self._log.append(
            ("fire", self._handset.name, self._alert_id, self._handset.now(), entering,
             current.latitude, current.longitude, current.timestamp_ms)
        )

    def __call__(self, *args):  # the JS-side callback style
        self.proximity_event(*args)


class _Handset:
    def __init__(self, name, eager, trajectory):
        if name == "android":
            self.sc = scenario.build_android()
        elif name == "s60":
            self.sc = scenario.build_s60()
        else:
            self.sc = scenario.build_webview()
        self.name = name
        self.device = self.sc.device
        if eager:
            EagerGpsReceiver.install(self.device)
        self.device.gps.set_trajectory(trajectory)
        if name == "webview":
            webview = self.sc.platform.new_webview()
            install_location_wrapper(webview, self.sc.platform, self.sc.new_context())
            self.proxy = LocationProxyJs.in_page(webview.load_page(lambda window: None))
        else:
            self.proxy = create_proxy("Location", self.sc.platform)
            if name == "android":
                self.proxy.set_property("context", self.sc.new_context())
        self.listeners = []

    def now(self):
        return self.device.clock.now_ms


def _fix(fix):
    if fix is None:
        return None
    point = fix.point
    return (point.latitude, point.longitude, point.altitude, fix.timestamp_ms,
            fix.accuracy_m, fix.speed_mps)


def run_world(script, *, eager):
    trajectory, ops = script
    handsets = {name: _Handset(name, eager, trajectory) for name in PLATFORMS}
    log = []
    for at_ms, kind, args in ops:
        for handset in handsets.values():
            handset.device.scheduler.run_until(max(at_ms, handset.now()))
        if kind == "alert":
            name, centre_ms, bearing, margin_m, radius, timer = args
            handset = handsets[name]
            truth = handset.device.gps._trajectory.position_at(centre_ms)
            centre = destination_point(
                truth.latitude, truth.longitude, bearing, max(0.0, radius + margin_m)
            )
            listener = _Recorder(log, handset, len(handset.listeners))
            handset.listeners.append(listener)
            handset.proxy.add_proximity_alert(
                centre.latitude, centre.longitude, 0.0, radius, timer, listener
            )
        elif kind == "remove":
            name, index = args
            handset = handsets[name]
            if handset.listeners:
                handset.proxy.remove_proximity_alert(
                    handset.listeners[index % len(handset.listeners)]
                )
        elif kind == "swap":
            for handset in handsets.values():
                handset.device.gps.set_trajectory(args)
        elif kind in ("off", "on"):
            for handset in handsets.values():
                getattr(handset.device.gps, f"power_{kind}")()
        else:
            for handset in handsets.values():
                location = handset.proxy.get_location()
                battery = handset.device.battery
                log.append(
                    ("read", handset.name, handset.now(), _fix(handset.device.gps.last_fix),
                     location.latitude, location.longitude, location.timestamp_ms,
                     sorted(battery.drain_report().items()), battery.level_mwh)
                )
    for handset in handsets.values():
        handset.device.scheduler.run_until(END_MS + 60_000.0)
        battery = handset.device.battery
        log.append(
            ("end", handset.name, _fix(handset.device.gps.last_fix),
             sorted(battery.drain_report().items()), battery.level_mwh)
        )
    return log


def by_alert(log):
    """Each alert's events in order, and every other record in order.

    Events of different alerts at one instant may interleave differently:
    the scheduler orders same-instant tasks by when they were scheduled,
    and the eager receiver's timer was re-armed at every tick.
    """
    fires = {}
    others = []
    for entry in log:
        if entry[0] == "fire":
            fires.setdefault(entry[1:3], []).append(entry[3:])
        else:
            others.append(entry)
    return fires, others


@settings(max_examples=40, deadline=None)
@given(scripts())
def test_matches_eager_receiver(script):
    assert by_alert(run_world(script, eager=False)) == by_alert(
        run_world(script, eager=True)
    )


def test_script_exercises_every_channel():
    """A fixed script that fires enter and exit events on every platform,
    so the property above compares more than empty logs."""
    trajectory = Trajectory(
        [
            Waypoint(0.0, BASE),
            Waypoint(100_000.0, destination_point(BASE.latitude, BASE.longitude, 45.0, 3_000.0)),
            Waypoint(200_000.0, BASE),
        ]
    )
    ops = [
        (1_000.0, "alert", (name, 50_000.0, 0.0, -400.0, 400.0, timer))
        for name in PLATFORMS
        for timer in (-1.0, 120.0)
    ] + [(60_000.0, "read", None), (90_000.0, "off", None), (95_000.0, "on", None)]
    log = run_world((trajectory, ops), eager=False)
    fires = {(entry[1], entry[4]) for entry in log if entry[0] == "fire"}
    assert fires == {(name, entering) for name in PLATFORMS for entering in (True, False)}
    assert by_alert(log) == by_alert(run_world((trajectory, ops), eager=True))


def test_registrations_inside_a_charged_call():
    """Alerts registered inside their regions every 50 ms across a
    second: the registering call charges the clock past ticks the
    scheduler has not dispatched yet.  The eager receiver delivers such a
    tick after the call, late, and the new alert sees it; so must it from
    the demand-driven receiver."""
    parked = Trajectory([Waypoint(0.0, BASE)])
    ops = [(1_000.0, "alert", (name, 0.0, 0.0, 1_500.0, 400.0, -1.0)) for name in PLATFORMS]
    ops += [
        (5_000.0 + 50.0 * k, "alert", (name, 0.0, 0.0, -400.0, 400.0, -1.0))
        for k in range(20)
        for name in PLATFORMS
    ]
    log = run_world((parked, ops), eager=False)
    late = {entry[1] for entry in log if entry[0] == "fire" and entry[7] < entry[3]}
    assert late == set(PLATFORMS), "some fix must reach an alert late"
    assert by_alert(log) == by_alert(run_world((parked, ops), eager=True))
