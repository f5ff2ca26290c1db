"""Native-latency charging with tracing on: the ``substrate.latency_ms``
series is resolved once per (registry, operation) and stays exact."""

import pytest

from repro.apps.workforce import scenario
from repro.obs import Observability

pytestmark = pytest.mark.obs


def _platform(hub):
    return scenario.build_android(observability=hub).platform


def _latency_counts(metrics):
    return {
        instrument.labels.get("operation", "other"): instrument.count
        for instrument in metrics.collect("substrate.latency_ms")
    }


def test_each_operation_lands_in_its_own_series():
    hub = Observability(capture_real_time=False)
    platform = _platform(hub)
    before = _latency_counts(hub.metrics)
    for operation in ("op.a", "op.b", "op.a", "op.a"):
        platform.charge_native(operation)
    after = _latency_counts(hub.metrics)
    assert after["op.a"] - before.get("op.a", 0) == 3
    assert after["op.b"] - before.get("op.b", 0) == 1


def test_a_replaced_hub_gets_the_samples():
    first = Observability(capture_real_time=False)
    platform = _platform(first)
    platform.charge_native("op.a")
    second = Observability(capture_real_time=False)
    second.bind_clock(platform.clock)
    platform.device.obs = second
    platform.charge_native("op.a")
    platform.charge_native("op.a")
    assert _latency_counts(second.metrics) == {"op.a": 2}
    assert _latency_counts(first.metrics)["op.a"] == 1


def test_overflowed_series_still_counts_every_request():
    hub = Observability(capture_real_time=False)
    platform = _platform(hub)
    hub.metrics.set_cardinality_limit(len(_latency_counts(hub.metrics)) + 1)
    platform.charge_native("op.kept")
    for _ in range(3):
        platform.charge_native("op.folded")
    counts = _latency_counts(hub.metrics)
    assert counts["op.kept"] == 1
    assert counts["other"] == 3
    assert "op.folded" not in counts
    overflow = hub.metrics.counter_values("obs.cardinality_overflow")
    assert overflow[(("metric", "substrate.latency_ms"),)] == 3


def test_registry_lookup_matches_the_uncached_series():
    hub = Observability(capture_real_time=False)
    platform = _platform(hub)
    platform.charge_native("op.a")
    cached = hub.metrics.histogram("substrate.latency_ms", operation="op.a")
    platform.charge_native("op.a")
    assert cached is hub.metrics.histogram("substrate.latency_ms", operation="op.a")
    assert cached.count == 2
