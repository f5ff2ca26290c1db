"""Battery model with per-operation drain accounting.

The substrates charge the battery for expensive operations (GPS fixes,
radio transmissions).  The model is an accounting device, not an
electro-chemical simulation: it lets tests assert that, e.g., the S60
polling-based location stack costs more energy than Android's event-driven
one — a real fragmentation consequence the proxies cannot hide.

The GPS receiver settles its ticks on demand, so the battery calls a
*settle* hook before every drain and every read: drain reports, levels and
the low-battery instant come out as if each tick had drained on time.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.util.events import TypedSignal


def _nothing_pending() -> None:
    pass


class Battery:
    """A capacity counter in milliwatt-hours with a low-level signal."""

    def __init__(
        self,
        capacity_mwh: float = 4_000.0,
        level_mwh: float = 4_000.0,
        low_threshold_fraction: float = 0.15,
    ) -> None:
        if capacity_mwh <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < low_threshold_fraction < 1.0:
            raise ValueError("low threshold must be in (0, 1)")
        self._capacity_mwh = capacity_mwh
        self._level_mwh = min(level_mwh, capacity_mwh)
        self.low_threshold_fraction = low_threshold_fraction
        self.on_low = TypedSignal("battery-low")
        self._drain_by_op: Dict[str, float] = {}
        self._low_signalled = False
        self._settle: Callable[[], None] = _nothing_pending

    def bind_settle(self, settle: Callable[[], None]) -> None:
        """Run ``settle`` before every drain and read, so drains that are
        accounted lazily (GPS ticks) land first, in order."""
        self._settle = settle

    @property
    def capacity_mwh(self) -> float:
        return self._capacity_mwh

    @capacity_mwh.setter
    def capacity_mwh(self, value: float) -> None:
        self._settle()
        self._capacity_mwh = value

    @property
    def level_mwh(self) -> float:
        self._settle()
        return self._level_mwh

    @level_mwh.setter
    def level_mwh(self, value: float) -> None:
        self._settle()
        self._level_mwh = value

    @property
    def fraction(self) -> float:
        """Remaining charge as a fraction of capacity."""
        return self.level_mwh / self._capacity_mwh

    @property
    def is_low(self) -> bool:
        return self.fraction <= self.low_threshold_fraction

    @property
    def is_empty(self) -> bool:
        return self.level_mwh <= 0.0

    def drain(self, operation: str, amount_mwh: float) -> None:
        """Charge ``amount_mwh`` against ``operation`` (floors at empty)."""
        if amount_mwh < 0:
            raise ValueError("drain amount cannot be negative")
        self._settle()
        self.debit(operation, amount_mwh)

    def debit(self, operation: str, amount_mwh: float) -> None:
        """:meth:`drain` without settling first: for the settling GPS
        receiver itself."""
        level = self._level_mwh = max(0.0, self._level_mwh - amount_mwh)
        drained = self._drain_by_op
        drained[operation] = drained.get(operation, 0.0) + amount_mwh
        if not self._low_signalled:
            fraction = level / self._capacity_mwh
            if fraction <= self.low_threshold_fraction:
                self._low_signalled = True
                self.on_low.emit(fraction)

    def recharge(self) -> None:
        """Restore to full and re-arm the low-battery signal."""
        self._settle()
        self._level_mwh = self._capacity_mwh
        self._low_signalled = False

    def drain_report(self) -> Dict[str, float]:
        """Total drain attributed to each operation so far."""
        self._settle()
        return dict(self._drain_by_op)
