"""The Location M-Proxy: proximity alerts and position reads.

The paper's flagship example.  The uniform API (``api.LocationProxy``)
matches Figure 8: ``add_proximity_alert(latitude, longitude, altitude,
radius, timer, listener)`` behaves identically on Android, S60 and
WebView, with platform attributes flowing through ``set_property``.
"""

from repro.core.proxies.location.api import LocationProxy

__all__ = ["LocationProxy"]
