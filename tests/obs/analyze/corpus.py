"""Three valid trace exports shared by the CLI pin and input-contract tests.

* ``storm`` — the workforce fleet under the ``ack_lost`` retry storm;
  byte-identical to the ``TRACE_distrib.jsonl`` that
  ``benchmarks/bench_distrib.py`` exports (same seeds and sizes);
* ``partitioned_storm`` — the same storm with a mid-run region cut
  (``tests/chaos/test_distrib_chaos.py:run_storm``);
* ``saga_dedup`` — a traced tier running a completed saga with a
  replicated write and a compensated saga with a failed step, followed
  by a hand-built resilience span carrying a two-suppression dedup chain.
"""

import functools

from repro.distrib import SagaStep
from repro.errors import ProxyNetworkError
from repro.obs import records_to_jsonl
from tests.chaos.test_distrib_chaos import run_storm
from tests.obs.analyze.test_causal import build_traced_tier

TRACE_NAMES = ("storm", "partitioned_storm", "saga_dedup")


def _storm(partition_window=None):
    fleet, _, _ = run_storm(partition_window=partition_window)
    return fleet.runtime.observability.export_jsonl()


def _saga_dedup():
    hub, tier = build_traced_tier()
    table = tier.table("t")
    tier.sagas.run(
        "report",
        [SagaStep("write", lambda: table.put("k", "v", region="ap-south"))],
    )
    tier.scheduler.run_for(1_000.0)

    def boom():
        raise ProxyNetworkError("injected: peer gone")

    try:
        tier.sagas.run(
            "checkin",
            [
                SagaStep("reserve", lambda: "r", lambda r: None),
                SagaStep("post", boom),
            ],
        )
    except ProxyNetworkError:
        pass
    dedup = {
        "name": "resilience:post", "trace_id": 99, "span_id": 1,
        "parent_id": None, "start_virtual_ms": 1_000.0,
        "end_virtual_ms": 1_001.0, "status": "ok", "error": None,
        "attributes": {"platform": "android"},
        "events": [
            {"name": "distrib.dedup", "t_virtual_ms": 1_000.5,
             "attributes": {"store": "network", "site": "network.request",
                            "chain": "Http:post#3", "region": "ap-south"}},
            {"name": "distrib.dedup", "t_virtual_ms": 1_000.8,
             "attributes": {"store": "network", "site": "network.request",
                            "chain": "Http:post#3", "region": "ap-south"}},
        ],
    }
    return hub.export_jsonl() + records_to_jsonl([dedup])


@functools.lru_cache(maxsize=None)
def trace_text(name):
    """The JSONL export called ``name`` (one of :data:`TRACE_NAMES`)."""
    builders = {
        "storm": _storm,
        "partitioned_storm": lambda: _storm((10_000.0, 60_000.0)),
        "saga_dedup": _saga_dedup,
    }
    return builders[name]()
