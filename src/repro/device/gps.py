"""GPS receiver simulation with trajectory playback.

The receiver replays a :class:`Trajectory` (timed waypoints) against the
device's virtual clock.  Once locked it *ticks* every fix interval, and
each tick is a noisy :class:`GpsFix` of ground truth.  Fix acquisition
latency and horizontal accuracy noise are modelled so the platform
location stacks above see realistic behaviour: a cold receiver takes time
to first fix, and reported positions wobble around ground truth.

Ticks are settled on demand rather than by a periodic timer: reading
:attr:`GpsReceiver.last_fix`, or draining or reading the battery, settles
every tick up to the scheduler's dispatch instant, which is where a
periodic timer would have got to.  Each tick keeps its place in the noise stream and
charges its energy, but only the latest one and the ticks a registered
:class:`FixConsumer` needs become fix objects; the receiver sleeps on one
one-shot task until the first tick a consumer needs.  Bus subscribers to
:data:`TOPIC_FIX`, a fault plan with ``gps.fix`` rules and a connected
``battery.on_low`` handler need every tick.  So every fix that is
produced is bit-identical to what a receiver ticking on a periodic timer
produces, stamped at its nominal tick instant.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.device.battery import Battery
    from repro.faults.injector import FaultInjector
from repro.util.clock import ScheduledTask, Scheduler
from repro.util.events import EventBus
from repro.util.geo import GeoPoint, haversine_m, interpolate

#: Topic on which fixes are published.
TOPIC_FIX = "gps.fix"
#: Topic for receiver power-state changes.
TOPIC_STATE = "gps.state"

#: Battery cost of producing one GPS fix (charged per tick).
FIX_DRAIN_MWH = 0.25

#: Largest ``|z|`` CPython's ``random.gauss`` returns: its Box-Muller step
#: scales by ``sqrt(-2 ln(1 - u))`` with ``u = random() <= 1 - 2**-53``.
GAUSS_Z_MAX = math.sqrt(-2.0 * math.log(2.0 ** -53))

#: Metres per degree of latitude and of longitude that dominate the
#: haversine scale (111.195 km per degree; less along a parallel).
M_PER_DEG_LAT = 111_200.0
M_PER_DEG_LON = 111_320.0

#: Bits of the noise stream one tick draws: its two ``gauss()`` calls are
#: one Box-Muller pair, two ``random()`` calls of two 32-bit words each.
_BITS_PER_TICK = 128


def noise_bound_m(accuracy_m: float) -> float:
    """Upper bound on one fix's distance from ground truth.

    Each axis moves by at most ``GAUSS_Z_MAX * accuracy_m`` metres (the
    degree scale the noise uses, 111.2 km, is above the haversine one),
    so the fix lies within ``sqrt(2)`` times that; 1% slack covers the
    sphere's curvature and rounding.
    """
    return GAUSS_Z_MAX * accuracy_m * math.sqrt(2.0) * 1.01


@dataclass(frozen=True)
class Waypoint:
    """A trajectory vertex: be at ``point`` at virtual time ``t_ms``."""

    t_ms: float
    point: GeoPoint


@dataclass(frozen=True)
class GpsFix:
    """A single position report from the receiver."""

    point: GeoPoint
    timestamp_ms: float
    accuracy_m: float
    speed_mps: float = 0.0


class FixConsumer(Protocol):
    """A per-fix consumer, registered with :meth:`GpsReceiver.attach`."""

    def on_fix(self, fix: GpsFix) -> None:
        """Evaluate one delivered fix."""

    def next_fix_needed_ms(self, ref_ms: float) -> float:
        """The earliest instant after ``ref_ms`` at which a fix could
        change this consumer's state: ``ref_ms`` (or earlier) for the
        next tick, ``math.inf`` for none."""


class Trajectory:
    """A piecewise-linear path through time.

    Before the first waypoint the position holds at the first point; after
    the last it holds at the last point — so a parked agent is just a
    single-waypoint trajectory.
    """

    def __init__(self, waypoints: Sequence[Waypoint]) -> None:
        if not waypoints:
            raise ConfigurationError("trajectory needs at least one waypoint")
        ordered = sorted(waypoints, key=lambda w: w.t_ms)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.t_ms == earlier.t_ms:
                raise ConfigurationError(
                    f"duplicate waypoint time {later.t_ms}"
                )
        self._waypoints: List[Waypoint] = list(ordered)
        self._times: List[float] = [w.t_ms for w in ordered]
        # Leg i runs from waypoint i to waypoint i + 1.
        self._speeds: List[float] = []
        bounds: List[float] = []
        for earlier, later in zip(ordered, ordered[1:]):
            distance = earlier.point.distance_to_m(later.point)
            duration_s = (later.t_ms - earlier.t_ms) / 1000.0
            self._speeds.append(distance / duration_s if duration_s > 0 else 0.0)
            # Interpolation is linear in degrees, so the haversine leg
            # speed does not bound the speed inside the leg; the degree
            # deltas at their largest metre scale do.
            degrees_m = (
                abs(later.point.latitude - earlier.point.latitude) * M_PER_DEG_LAT
                + abs(later.point.longitude - earlier.point.longitude) * M_PER_DEG_LON
            )
            bounds.append(degrees_m * 1000.0 / (later.t_ms - earlier.t_ms))
        # _bound_from[i]: the largest bound over legs i and later.
        self._bound_from: List[float] = bounds + [0.0]
        for index in range(len(bounds) - 1, -1, -1):
            self._bound_from[index] = max(bounds[index], self._bound_from[index + 1])

    @property
    def waypoints(self) -> List[Waypoint]:
        return list(self._waypoints)

    @property
    def start_ms(self) -> float:
        return self._waypoints[0].t_ms

    @property
    def end_ms(self) -> float:
        return self._waypoints[-1].t_ms

    def position_at(self, t_ms: float) -> GeoPoint:
        """Ground-truth position at virtual time ``t_ms``.

        At an interior waypoint's exact instant the leg *ending* there
        interpolates (fraction 1.0).
        """
        pts = self._waypoints
        times = self._times
        if t_ms <= times[0]:
            return pts[0].point
        if t_ms >= times[-1]:
            return pts[-1].point
        index = bisect_left(times, t_ms)
        if not 0 < index < len(times):
            raise SimulationError(f"unreachable: t={t_ms}")  # pragma: no cover
        earlier = pts[index - 1]
        span = times[index] - earlier.t_ms
        fraction = (t_ms - earlier.t_ms) / span
        return interpolate(earlier.point, pts[index].point, fraction)

    def speed_at(self, t_ms: float) -> float:
        """Ground-truth speed in metres/second at ``t_ms``.

        At an interior waypoint's exact instant the leg *starting* there
        gives the speed.
        """
        times = self._times
        if not times[0] <= t_ms < times[-1]:
            return 0.0
        return self._speeds[bisect_right(times, t_ms) - 1]

    def speed_bound_after(self, t_ms: float) -> float:
        """Upper bound (m/s) on how fast the position moves from ``t_ms``
        on: the largest bound over the legs not yet finished.  Zero once
        the path is parked at its last waypoint."""
        return self._bound_from[max(0, bisect_right(self._times, t_ms) - 1)]


class GpsReceiver:
    """A virtual GPS chip whose fixes are settled on demand.

    Parameters
    ----------
    scheduler:
        The device's shared scheduler.
    bus:
        The device's event bus; delivered fixes publish on
        :data:`TOPIC_FIX`, and any subscriber there needs every tick.
    trajectory:
        Ground-truth path.  Replaceable at runtime via :meth:`set_trajectory`.
    fix_interval_ms:
        Period between fixes once locked.
    time_to_first_fix_ms:
        Cold-start delay before the first fix after :meth:`power_on`.
    accuracy_m:
        Reported (and injected) 1-sigma horizontal error.
    seed:
        Seed for the accuracy-noise RNG.
    injector:
        The device's fault injector; with ``gps.fix`` rules it is
        consulted on every tick.
    battery:
        Charged :data:`FIX_DRAIN_MWH` per tick.  The receiver settles
        before the battery is drained or read, and a connected
        ``on_low`` handler needs every tick.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        bus: EventBus,
        trajectory: Optional[Trajectory] = None,
        *,
        fix_interval_ms: float = 1_000.0,
        time_to_first_fix_ms: float = 2_000.0,
        accuracy_m: float = 5.0,
        seed: Optional[int] = 0,
        injector: Optional["FaultInjector"] = None,
        battery: Optional["Battery"] = None,
    ) -> None:
        if fix_interval_ms <= 0:
            raise ConfigurationError("fix interval must be positive")
        if time_to_first_fix_ms < 0:
            raise ConfigurationError("time to first fix cannot be negative")
        self._scheduler = scheduler
        self._clock = scheduler.clock
        self._bus = bus
        self._trajectory = trajectory
        self._fix_interval_ms = fix_interval_ms
        self._ttff_ms = time_to_first_fix_ms
        self._accuracy_m = accuracy_m
        self._noise_bound_m = noise_bound_m(accuracy_m)
        self._rng = random.Random(seed)
        self._powered = False
        self._last_fix: Optional[GpsFix] = None
        #: (trajectory, instant) of a later tick not yet made a fix, and
        #: how many ticks up to it still owe their noise draws.
        self._pending: Optional[Tuple[Trajectory, float]] = None
        self._owed = 0
        self._faults = injector
        self._battery = battery
        self._consumers: List[FixConsumer] = []
        #: Accumulated instant of the first tick not yet settled (never,
        #: while powered off).
        self._next_ms = math.inf
        #: Ticks at or after this instant are delivered; earlier ones
        #: only draw their noise and charge their energy.
        self._need_ms = math.inf
        self._settling = False
        self._wake: Optional[ScheduledTask] = None
        #: The instant the wake is for: a tick, or a need instant before
        #: which no tick is needed (the task may run later).
        self._wake_ms = math.inf
        #: Fault-plane observability: fixes dropped / served stale so far.
        self.lost_fixes = 0
        self.stale_fixes = 0
        bus.watch(TOPIC_FIX, self.demand_changed)
        if battery is not None:
            battery.bind_settle(self.settle)
            battery.on_low.watch(self.demand_changed)
        self._every_tick = self._wants_every_tick()

    @property
    def powered(self) -> bool:
        return self._powered

    @property
    def last_fix(self) -> Optional[GpsFix]:
        """Most recent fix, or ``None`` before first lock."""
        self.settle()
        return self._latest_fix()

    @property
    def fix_interval_ms(self) -> float:
        return self._fix_interval_ms

    @property
    def noise_bound_m(self) -> float:
        """No fix lies farther than this from ground truth."""
        return self._noise_bound_m

    def set_trajectory(self, trajectory: Trajectory) -> None:
        """Swap the ground-truth path (takes effect at the next tick)."""
        self.settle()
        self._trajectory = trajectory
        self.demand_changed()

    def power_on(self) -> None:
        """Start the receiver; first fix arrives after the cold-start delay."""
        if self._powered:
            return
        if self._trajectory is None:
            raise SimulationError("cannot power on GPS without a trajectory")
        self._powered = True
        now = self._clock.now_ms
        self._next_ms = now + self._ttff_ms
        self._bus.publish(TOPIC_STATE, "on")
        self._need_ms = self._need_after(now)
        self._schedule_wake()

    def power_off(self) -> None:
        """Stop ticking.  The last fix remains readable."""
        if not self._powered:
            return
        self.settle()
        if not self._powered:  # a consumer powered it off while settling
            return
        self._powered = False
        self._next_ms = math.inf
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        self._bus.publish(TOPIC_STATE, "off")

    def ground_truth(self) -> GeoPoint:
        """The true (noise-free) position right now."""
        if self._trajectory is None:
            raise SimulationError("no trajectory configured")
        return self._trajectory.position_at(self._clock.now_ms)

    # -- demand ----------------------------------------------------------------

    def attach(self, consumer: FixConsumer) -> None:
        """Deliver fixes to ``consumer`` whenever it needs one."""
        self.settle()
        self._consumers.append(consumer)
        self.demand_changed()

    def demand_changed(self) -> None:
        """Re-plan the next delivered tick from every consumer's need.

        Bus and ``on_low`` watchers call it just before a subscription
        change (so due ticks settle against the old set) and just after.
        """
        self._every_tick = self._wants_every_tick()
        if self._settling:
            return  # the settling loop re-plans after each delivery
        self.settle()
        if self._powered:
            # From the first unsettled tick: settling may have left a late
            # needed one for the wake task.
            self._need_ms = self._need_after(min(self._clock.now_ms, self._next_ms))
            self._schedule_wake()

    def need_next_fix(self) -> None:
        """A consumer gained something the next unsettled tick must be
        delivered to (settle before making the change).  Inside a call
        that charged the clock that tick may already lie in the past: it
        is then delivered after the call, as a late periodic tick was."""
        if self._powered and self._next_ms < self._need_ms:
            self._need_ms = self._next_ms
            if not self._settling:
                self._schedule_wake()

    def verdict_holds_until_ms(
        self,
        ref_ms: float,
        latitude: float,
        longitude: float,
        radius_m: float,
        inside: bool,
    ) -> float:
        """The first instant after ``ref_ms`` at which a fix could fall on
        the other side of the circle than ``inside`` says.

        A fix lies within :attr:`noise_bound_m` of ground truth, and ground
        truth moves no faster than the trajectory's speed bound, so
        ``(|distance - radius| - noise bound) / speed bound`` is safe.
        Returns ``ref_ms`` when the next fix might already disagree and
        ``math.inf`` when the path is parked clear of the boundary.
        """
        trajectory = self._trajectory
        truth = trajectory.position_at(ref_ms)
        distance = haversine_m(truth.latitude, truth.longitude, latitude, longitude)
        margin = (radius_m - distance if inside else distance - radius_m) - (
            self._noise_bound_m
        )
        if margin <= 0.0:
            return ref_ms
        speed = trajectory.speed_bound_after(ref_ms)
        return math.inf if speed == 0.0 else ref_ms + margin / speed * 1000.0

    def _wants_every_tick(self) -> bool:
        battery = self._battery
        faults = self._faults
        return (
            self._bus.subscriber_count(TOPIC_FIX) > 0
            or (faults is not None and faults.has_rules(TOPIC_FIX))
            or (battery is not None and len(battery.on_low) > 0)
        )

    def _need_after(self, ref_ms: float) -> float:
        if self._every_tick:
            return ref_ms
        need = math.inf
        for consumer in self._consumers:
            need = min(need, consumer.next_fix_needed_ms(ref_ms))
        return need

    # -- settling ----------------------------------------------------------------

    def settle(self) -> None:
        """Bring every tick the scheduler has dispatched through to
        account: draw its noise, charge its energy and, where one is
        needed, deliver its fix.

        Ticks that a synchronous clock charge has passed but the scheduler
        has not are not yet due, as a periodic timer's were not: a read
        inside a charged call sees the fix of the last dispatched tick.  A
        needed tick before the dispatch instant that is still unsettled
        has a late wake, which delivers it and every tick after it.
        """
        horizon = self._scheduler.dispatched_ms
        if self._next_ms > horizon or self._settling:
            return  # the common case: checked before reading the clock
        now = self._clock.now_ms
        if now < horizon:  # a charge capture rolled the clock back past it
            horizon = now
        if self._next_ms <= horizon:
            if self._need_ms > horizon:
                self._skip(horizon, self._need_ms)  # no consumer runs
            else:
                self._settle(horizon, horizon)

    def _settle(self, until_ms: float, late_before_ms: float) -> None:
        if self._settling or self._next_ms > until_ms:
            return
        self._settling = True
        try:
            delivered = self._run_ticks(until_ms, late_before_ms)
        finally:
            self._settling = False
        if delivered:
            self._schedule_wake()

    def _run_ticks(self, until_ms: float, late_before_ms: float) -> bool:
        delivered = False
        # Re-read the state on every tick: a consumer may power the
        # receiver off (or cycle it) from inside a delivery.
        while self._next_ms <= until_ms:
            t_ms = self._next_ms
            if t_ms < self._need_ms:
                self._skip(until_ms, self._need_ms)
                continue
            if t_ms < late_before_ms:
                break  # the wake task delivers it
            self._next_ms = t_ms + self._fix_interval_ms
            self._emit_fix(t_ms)
            delivered = True
            self._need_ms = self._need_after(t_ms)
        return delivered

    def _skip(self, until_ms: float, need_ms: float) -> None:
        """Settle the ticks up to ``until_ms`` and before ``need_ms``,
        which nobody needs: owe their noise draws until a fix is made,
        and charge their energy at once."""
        interval = self._fix_interval_ms
        last_ms = t_ms = self._next_ms
        count = 1
        t_ms += interval
        while t_ms <= until_ms and t_ms < need_ms:
            last_ms = t_ms
            t_ms += interval
            count += 1
        self._next_ms = t_ms
        self._owed += count
        self._pending = (self._trajectory, last_ms)
        if self._battery is not None:
            # A power of two: below 2**51 mWh each tick's subtraction is
            # exact, so one debit of the sum equals them in turn.
            self._battery.debit("gps.fix", FIX_DRAIN_MWH * count)

    def _noise(self, skip: int) -> Tuple[float, float]:
        """One tick's noise, drawn after stepping the stream past the
        ``skip`` ticks before it, as if each had drawn its own."""
        rng = self._rng
        if skip:
            rng.getrandbits(_BITS_PER_TICK * skip)
        self._owed = 0
        return rng.gauss(0.0, self._accuracy_m), rng.gauss(0.0, self._accuracy_m)

    def _latest_fix(self) -> Optional[GpsFix]:
        pending = self._pending
        if pending is not None:
            self._pending = None
            trajectory, t_ms = pending
            d_lat, d_lon = self._noise(self._owed - 1)
            self._last_fix = self._make_fix(trajectory, t_ms, d_lat, d_lon)
        return self._last_fix

    def _make_fix(
        self, trajectory: Trajectory, t_ms: float, d_lat: float, d_lon: float
    ) -> GpsFix:
        truth = trajectory.position_at(t_ms)
        # 1 degree of latitude is ~111.2 km; close enough for noise
        # injection (applied to both axes).
        noisy = GeoPoint(
            truth.latitude + d_lat / 111_200.0,
            truth.longitude + d_lon / 111_200.0,
            truth.altitude,
        )
        return GpsFix(noisy, t_ms, self._accuracy_m, trajectory.speed_at(t_ms))

    def _emit_fix(self, t_ms: float) -> None:
        if self._faults is not None:
            fault = self._faults.decide(TOPIC_FIX)
            if fault is not None:
                previous = self._latest_fix()
                if fault.kind == "stale" and previous is not None:
                    # Replay the previous fix unchanged: position and
                    # timestamp both lag reality, as a stuck receiver's do.
                    self.stale_fixes += 1
                    self._deliver(previous)
                else:  # "lost" — or stale with nothing to replay
                    self.lost_fixes += 1
                return
        d_lat, d_lon = self._noise(self._owed)
        self._pending = None
        fix = self._last_fix = self._make_fix(self._trajectory, t_ms, d_lat, d_lon)
        self._deliver(fix)

    def _deliver(self, fix: GpsFix) -> None:
        if self._battery is not None:
            self._battery.debit("gps.fix", FIX_DRAIN_MWH)
        for consumer in tuple(self._consumers):
            consumer.on_fix(fix)
        self._bus.publish(TOPIC_FIX, fix)

    def _on_wake(self) -> None:
        target_ms = self._wake_ms
        self._wake = None
        if self._next_ms < target_ms:
            # Woken at a need instant: nobody needs the ticks before it.
            self._skip(target_ms, target_ms)
        if self._next_ms == target_ms:
            # Re-arm for the next tick before delivering this one, as a
            # periodic timer re-arms before its callback: a task that the
            # delivery schedules for that tick then runs after it.
            self._wake_ms = target_ms + self._fix_interval_ms
            self._wake = self._scheduler.call_at(
                max(self._wake_ms, self._clock.now_ms), self._on_wake, name="gps-fix"
            )
        # Settle through this wake's own tick only: a later tick that a
        # clock charge has also made due keeps its own place in the
        # queue, as each tick of a periodic timer does.
        self._settle(target_ms, -math.inf)
        if self._wake is None:
            self._schedule_wake()

    def _schedule_wake(self) -> None:
        """Arm the one-shot task for the next unsettled tick, or for
        ``_need_ms`` when that is later (none when nothing needs a tick).

        Tick instants are accumulated sums, as the periodic timer made
        them, so a later tick is not computed ahead: a wake at the need
        instant settles the ticks before it and then aims at the tick.
        """
        need = self._need_ms
        when: Optional[float] = None
        if self._powered and need != math.inf:
            when = max(need, self._next_ms)
        wake = self._wake
        if wake is not None:
            if self._wake_ms == when:
                return
            wake.cancel()
        self._wake = None
        if when is not None:
            self._wake_ms = when
            # A clock charge may have passed that instant: then it is due
            # now, as a late periodic timer would be.
            self._wake = self._scheduler.call_at(
                max(when, self._clock.now_ms), self._on_wake, name="gps-fix"
            )
