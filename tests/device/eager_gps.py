"""A frozen eager GPS receiver: the oracle for the demand-driven one.

This is the receiver as it was before ticks were settled on demand: a
periodic ``call_every`` task runs ``_emit_fix`` on every tick, which
consults the fault plane, draws the noise, charges the battery (formerly a
device bus subscription, first in line) and hands the fix to every
consumer and bus subscriber.  It ignores every consumer's horizon, which
is the same as a horizon of zero.  Do not change its behaviour: the
equivalence test in ``test_gps_oracle.py`` holds the real receiver to it.

One declared difference from the receiver as it was: a tick whose timer
runs late, because a synchronous native charge moved the clock past its
instant, is stamped and positioned at its nominal instant (the dispatch
instant), as the demand-driven receiver does; the old one used the late
clock reading.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.device.gps import FIX_DRAIN_MWH, TOPIC_FIX, TOPIC_STATE, GpsFix
from repro.errors import SimulationError
from repro.util.geo import GeoPoint


class EagerGpsReceiver:
    """Drop-in for :class:`repro.device.gps.GpsReceiver` on a device."""

    def __init__(
        self,
        scheduler,
        bus,
        trajectory=None,
        *,
        fix_interval_ms: float = 1_000.0,
        time_to_first_fix_ms: float = 2_000.0,
        accuracy_m: float = 5.0,
        seed: Optional[int] = 0,
        injector=None,
        battery=None,
    ) -> None:
        self._scheduler = scheduler
        self._bus = bus
        self._trajectory = trajectory
        self._fix_interval_ms = fix_interval_ms
        self._ttff_ms = time_to_first_fix_ms
        self._accuracy_m = accuracy_m
        self._rng = random.Random(seed)
        self._powered = False
        self._fix_task = None
        self._last_fix: Optional[GpsFix] = None
        self._faults = injector
        self._battery = battery
        self._consumers: List = []
        self.lost_fixes = 0
        self.stale_fixes = 0
        if battery is not None:
            battery.bind_settle(lambda: None)

    @classmethod
    def install(cls, device, *, seed: int = 0) -> "EagerGpsReceiver":
        """Replace ``device.gps`` (before anything uses it)."""
        device.gps = cls(
            device.scheduler,
            device.bus,
            device.gps._trajectory,
            seed=seed,
            injector=device.faults,
            battery=device.battery,
        )
        return device.gps

    # -- the consumer surface: eager delivery needs no planning ---------------

    def attach(self, consumer) -> None:
        self._consumers.append(consumer)

    def settle(self) -> None:
        pass

    def demand_changed(self) -> None:
        pass

    def need_next_fix(self) -> None:
        pass

    # -- the receiver as it was -------------------------------------------------

    @property
    def powered(self) -> bool:
        return self._powered

    @property
    def last_fix(self) -> Optional[GpsFix]:
        return self._last_fix

    def set_trajectory(self, trajectory) -> None:
        self._trajectory = trajectory

    def power_on(self) -> None:
        if self._powered:
            return
        if self._trajectory is None:
            raise SimulationError("cannot power on GPS without a trajectory")
        self._powered = True
        self._bus.publish(TOPIC_STATE, "on")
        self._fix_task = self._scheduler.call_every(
            self._fix_interval_ms,
            self._emit_fix,
            initial_delay_ms=self._ttff_ms,
            name="gps-fix",
        )

    def power_off(self) -> None:
        if not self._powered:
            return
        self._powered = False
        if self._fix_task is not None:
            self._fix_task.cancel()
            self._fix_task = None
        self._bus.publish(TOPIC_STATE, "off")

    def ground_truth(self) -> GeoPoint:
        return self._trajectory.position_at(self._scheduler.clock.now_ms)

    def _emit_fix(self) -> None:
        if self._faults is not None:
            fault = self._faults.decide("gps.fix")
            if fault is not None:
                if fault.kind == "stale" and self._last_fix is not None:
                    self.stale_fixes += 1
                    self._publish(self._last_fix)
                else:
                    self.lost_fixes += 1
                return
        trajectory = self._trajectory
        now = self._scheduler.dispatched_ms  # the tick's nominal instant
        truth = trajectory.position_at(now)
        gauss = self._rng.gauss
        accuracy_m = self._accuracy_m
        noisy = GeoPoint(
            truth.latitude + gauss(0.0, accuracy_m) / 111_200.0,
            truth.longitude + gauss(0.0, accuracy_m) / 111_200.0,
            truth.altitude,
        )
        fix = GpsFix(noisy, now, accuracy_m, trajectory.speed_at(now))
        self._last_fix = fix
        self._publish(fix)

    def _publish(self, fix: GpsFix) -> None:
        if self._battery is not None:
            self._battery.drain("gps.fix", FIX_DRAIN_MWH)
        for consumer in tuple(self._consumers):
            consumer.on_fix(fix)
        self._bus.publish(TOPIC_FIX, fix)
