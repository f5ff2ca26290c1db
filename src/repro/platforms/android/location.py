"""Android location stack: ``Location`` and ``LocationManager``.

The fragmentation axes reproduced here (each absorbed by the Location
M-Proxy):

* the manager is obtained via ``context.get_system_service`` — the
  platform-mandated *application context* attribute;
* proximity alerts ride the Intent broadcast machinery, produce **both**
  enter and exit events, repeat until an **expiration** deadline, and the
  registration argument changed from ``Intent`` (m5-rc15) to
  ``PendingIntent`` (1.0);
* missing ``ACCESS_FINE_LOCATION`` raises ``SecurityException``.

Java mapping: ``addProximityAlert`` → :meth:`LocationManager.add_proximity_alert`,
``getCurrentLocation`` → :meth:`LocationManager.get_current_location`, etc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union, TYPE_CHECKING

from repro.device.gps import GpsFix, TOPIC_FIX
from repro.platforms.android.context import Context
from repro.platforms.android.exceptions import (
    IllegalArgumentException,
    SecurityException,
)
from repro.platforms.android.intents import Intent, PendingIntent
from repro.platforms.android.versions import SdkVersion
from repro.util.geo import haversine_m

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms.android.platform import AndroidPlatform

#: Manifest permission required by the location APIs.
ACCESS_FINE_LOCATION = "android.permission.ACCESS_FINE_LOCATION"

#: Extra key carrying the enter/exit flag on proximity broadcasts.
EXTRA_ENTERING = "entering"

#: Sentinel for "alert never expires".
NO_EXPIRATION = -1


class Location:
    """An Android-style location value with Java-ish accessors."""

    def __init__(
        self,
        latitude: float,
        longitude: float,
        altitude: float = 0.0,
        accuracy_m: float = 0.0,
        time_ms: float = 0.0,
        speed_mps: float = 0.0,
        provider: str = "gps",
    ) -> None:
        self._latitude = latitude
        self._longitude = longitude
        self._altitude = altitude
        self._accuracy_m = accuracy_m
        self._time_ms = time_ms
        self._speed_mps = speed_mps
        self._provider = provider

    def get_latitude(self) -> float:
        return self._latitude

    def get_longitude(self) -> float:
        return self._longitude

    def get_altitude(self) -> float:
        return self._altitude

    def get_accuracy(self) -> float:
        return self._accuracy_m

    def get_time(self) -> float:
        """Fix timestamp in (virtual) milliseconds."""
        return self._time_ms

    def get_speed(self) -> float:
        return self._speed_mps

    def get_provider(self) -> str:
        return self._provider

    def distance_to(self, other: "Location") -> float:
        """Great-circle distance in metres (Java: ``distanceTo``)."""
        return haversine_m(
            self._latitude, self._longitude, other.get_latitude(), other.get_longitude()
        )

    @classmethod
    def from_fix(cls, fix: GpsFix, provider: str = "gps") -> "Location":
        return cls(
            latitude=fix.point.latitude,
            longitude=fix.point.longitude,
            altitude=fix.point.altitude,
            accuracy_m=fix.accuracy_m,
            time_ms=fix.timestamp_ms,
            speed_mps=fix.speed_mps,
            provider=provider,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Location({self._latitude:.6f}, {self._longitude:.6f}, "
            f"provider={self._provider!r})"
        )


@dataclass
class _ProximityAlert:
    """Book-keeping for one registered proximity alert."""

    latitude: float
    longitude: float
    radius_m: float
    expires_at_ms: Optional[float]
    target: Union[Intent, PendingIntent]
    inside: bool = False
    primed: bool = False  # becomes True after the first fix evaluation
    fired: List[str] = field(default_factory=list)


class LocationManager:
    """The per-context location service facade.

    One underlying alert table is shared per platform; the facade carries
    the requesting context so permission failures attribute correctly.
    """

    #: Provider name constant (Java: LocationManager.GPS_PROVIDER).
    GPS_PROVIDER = "gps"

    def __init__(self, platform: "AndroidPlatform", context: Context) -> None:
        self._platform = platform
        self._context = context
        self._state = platform.location_state

    # -- one-shot reads ----------------------------------------------------

    def get_current_location(self, provider: str) -> Location:
        """Synchronous position read (charges the native latency).

        Raises ``SecurityException`` without ``ACCESS_FINE_LOCATION`` and
        ``IllegalArgumentException`` for unknown providers.
        """
        self._check_provider(provider)
        self._context.enforce_permission(ACCESS_FINE_LOCATION, "getCurrentLocation")
        self._platform.charge_native("android.getLocation")
        self._state.ensure_gps_powered()
        fix = self._platform.device.gps.last_fix
        if fix is not None:
            return Location.from_fix(fix, provider)
        # Cold receiver: model a blocking first fix at ground truth.
        point = self._platform.device.gps.ground_truth()
        return Location(
            latitude=point.latitude,
            longitude=point.longitude,
            altitude=point.altitude,
            time_ms=self._platform.clock.now_ms,
            provider=provider,
        )

    def get_last_known_location(self, provider: str) -> Optional[Location]:
        """Cached position; ``None`` before first fix (no latency charge)."""
        self._check_provider(provider)
        self._context.enforce_permission(ACCESS_FINE_LOCATION, "getLastKnownLocation")
        fix = self._platform.device.gps.last_fix
        return None if fix is None else Location.from_fix(fix, provider)

    # -- proximity alerts ----------------------------------------------------

    def add_proximity_alert(
        self,
        latitude: float,
        longitude: float,
        radius: float,
        expiration: float,
        intent: Union[Intent, PendingIntent],
    ) -> None:
        """Register a proximity alert (Java: ``addProximityAlert``).

        ``expiration`` is milliseconds from now, or :data:`NO_EXPIRATION`.
        The accepted type of ``intent`` depends on the platform's SDK
        version — the paper's maintenance example.
        """
        self._context.enforce_permission(ACCESS_FINE_LOCATION, "addProximityAlert")
        self._check_intent_type(intent)
        if radius <= 0:
            raise IllegalArgumentException(f"radius must be positive, got {radius}")
        self._platform.charge_native("android.addProximityAlert")
        now = self._platform.clock.now_ms
        expires = None if expiration == NO_EXPIRATION else now + expiration
        alert = _ProximityAlert(
            latitude=latitude,
            longitude=longitude,
            radius_m=radius,
            expires_at_ms=expires,
            target=intent,
        )
        self._state.add_alert(alert, self._context)

    def remove_proximity_alert(self, intent: Union[Intent, PendingIntent]) -> None:
        """Remove the alert registered with exactly this intent object."""
        self._state.remove_alert(intent)

    # -- internals -------------------------------------------------------------

    def _check_provider(self, provider: str) -> None:
        if provider != self.GPS_PROVIDER:
            raise IllegalArgumentException(f"unknown provider {provider!r}")

    def _check_intent_type(self, intent: Union[Intent, PendingIntent]) -> None:
        version = self._platform.sdk_version
        if version is SdkVersion.M5_RC15:
            if not isinstance(intent, Intent):
                raise IllegalArgumentException(
                    "SDK m5-rc15 addProximityAlert takes an Intent, got "
                    + type(intent).__name__
                )
        else:  # SDK 1.0 and later require a PendingIntent
            if not isinstance(intent, PendingIntent):
                raise IllegalArgumentException(
                    "SDK 1.0 addProximityAlert takes a PendingIntent, got "
                    + type(intent).__name__
                )


class LocationServiceState:
    """Platform-wide location state: the alert table and GPS lifecycle.

    The platform owns exactly one of these; every LocationManager facade
    shares it.  Subscribes to device GPS fixes and converts region-boundary
    crossings into intent broadcasts.
    """

    def __init__(self, platform: "AndroidPlatform") -> None:
        self._platform = platform
        self._alerts: List[_ProximityAlert] = []
        self._alert_contexts: Dict[int, Context] = {}
        self._gps_subscribed = False

    @property
    def active_alert_count(self) -> int:
        return len(self._alerts)

    def ensure_gps_powered(self) -> None:
        gps = self._platform.device.gps
        if not gps.powered:
            gps.power_on()
        if not self._gps_subscribed:
            self._platform.device.bus.subscribe(TOPIC_FIX, self._on_fix)
            self._gps_subscribed = True

    def add_alert(self, alert: _ProximityAlert, context: Context) -> None:
        self._alerts.append(alert)
        self._alert_contexts[id(alert)] = context
        self.ensure_gps_powered()

    def remove_alert(self, intent: Union[Intent, PendingIntent]) -> None:
        for alert in list(self._alerts):
            if alert.target is intent:
                self._drop(alert)

    def _drop(self, alert: _ProximityAlert) -> None:
        if alert in self._alerts:
            self._alerts.remove(alert)
        self._alert_contexts.pop(id(alert), None)

    def _on_fix(self, topic: str, fix: GpsFix) -> None:
        if not self._alerts:
            return
        now = self._platform.clock.now_ms
        latitude = fix.point.latitude
        longitude = fix.point.longitude
        for alert in list(self._alerts):
            expires_at_ms = alert.expires_at_ms
            if expires_at_ms is not None and now >= expires_at_ms:
                self._drop(alert)
                continue
            inside = (
                haversine_m(latitude, longitude, alert.latitude, alert.longitude)
                <= alert.radius_m
            )
            if not alert.primed:
                alert.primed = True
                alert.inside = inside
                if inside:
                    self._fire(alert, entering=True)
                continue
            if inside != alert.inside:
                alert.inside = inside
                self._fire(alert, entering=inside)

    def _fire(self, alert: _ProximityAlert, *, entering: bool) -> None:
        alert.fired.append("enter" if entering else "exit")
        context = self._alert_contexts.get(id(alert))
        registry = self._platform.broadcast_registry
        if isinstance(alert.target, PendingIntent):
            registry.send_pending(context, alert.target, {EXTRA_ENTERING: entering})
        else:
            intent = alert.target.copy()
            intent.put_extra(EXTRA_ENTERING, entering)
            registry.broadcast(context, intent)
