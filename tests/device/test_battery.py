"""Tests for the battery accounting model."""

import pytest
from hypothesis import given, strategies as st

from repro.device.battery import Battery


class TestBattery:
    def test_full_at_start(self):
        battery = Battery(capacity_mwh=1_000.0, level_mwh=1_000.0)
        assert battery.fraction == 1.0
        assert not battery.is_low

    def test_drain_reduces_level(self):
        battery = Battery(capacity_mwh=1_000.0, level_mwh=1_000.0)
        battery.drain("gps", 100.0)
        assert battery.level_mwh == 900.0

    def test_drain_floors_at_zero(self):
        battery = Battery(capacity_mwh=100.0, level_mwh=100.0)
        battery.drain("radio", 500.0)
        assert battery.level_mwh == 0.0
        assert battery.is_empty

    def test_negative_drain_rejected(self):
        with pytest.raises(ValueError):
            Battery().drain("x", -1.0)

    def test_drain_report_by_operation(self):
        battery = Battery()
        battery.drain("gps", 10.0)
        battery.drain("gps", 5.0)
        battery.drain("radio", 2.0)
        assert battery.drain_report() == {"gps": 15.0, "radio": 2.0}

    def test_low_signal_fires_once(self):
        battery = Battery(capacity_mwh=100.0, level_mwh=100.0, low_threshold_fraction=0.5)
        fired = []
        battery.on_low.connect(fired.append)
        battery.drain("x", 60.0)
        battery.drain("x", 10.0)
        assert len(fired) == 1

    def test_recharge_rearms_signal(self):
        battery = Battery(capacity_mwh=100.0, level_mwh=100.0, low_threshold_fraction=0.5)
        fired = []
        battery.on_low.connect(fired.append)
        battery.drain("x", 60.0)
        battery.recharge()
        assert battery.fraction == 1.0
        battery.drain("x", 60.0)
        assert len(fired) == 2

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Battery(capacity_mwh=0.0)
        with pytest.raises(ValueError):
            Battery(low_threshold_fraction=1.5)

    def test_level_clamped_to_capacity(self):
        battery = Battery(capacity_mwh=100.0, level_mwh=500.0)
        assert battery.level_mwh == 100.0


class TestSettling:
    @given(
        st.floats(min_value=0.0, max_value=4_000.0),
        st.integers(min_value=0, max_value=20_000),
    )
    def test_one_debit_of_many_fix_drains_equals_them_in_turn(self, level, ticks):
        """GPS ticks skipped unseen are charged at once, bit-identically."""
        one, many = Battery(level_mwh=level), Battery(level_mwh=level)
        one.debit("gps.fix", 0.25 * ticks)
        for _ in range(ticks):
            many.debit("gps.fix", 0.25)
        assert one.level_mwh == many.level_mwh
        assert one.drain_report() == many.drain_report() or ticks == 0

    def test_drains_and_reads_settle_first(self):
        battery = Battery()
        settled = []
        battery.bind_settle(lambda: settled.append(battery._level_mwh))
        battery.drain("radio", 1.0)
        assert battery.level_mwh == 3_999.0
        battery.drain_report()
        assert settled == [4_000.0, 3_999.0, 3_999.0]
