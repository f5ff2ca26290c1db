"""Distributed-tier analytics over exported traces.

``python -m repro.obs distrib TRACE`` reports the distributed tier's
per-table activity: per-table/per-region replication lag (from
``replicate:<table>`` spans), gossip sweep activity (``gossip:<table>``
spans), partition cuts and heals (``partition:<a>|<b>`` spans), dedup
suppressions (``distrib.dedup`` events on resilience spans) and saga
outcomes (``saga:*`` spans plus their lifecycle events).

:class:`DistribReport` is a projection of the causal fold
(:class:`~repro.obs.analyze.causal.CausalReport`), which is the one pass
over the tier's spans and events; this module only selects and renders
its tables.  Like the admission report, everything is recomputed from
the trace alone — a saved CI export answers "did the regions converge
and was anything applied twice?" without rerunning the scenario.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.analyze.causal import CausalReport

__all__ = ["DistribReport", "render_distrib_text"]


class DistribReport:
    """Replication / dedup / saga tables of one causal fold."""

    def __init__(self, causal: CausalReport) -> None:
        self.replication = causal.replication_lag
        self.gossip = causal.gossip
        self.partitions = causal.partitions
        self.dedup_by_store = causal.dedup_by_store
        self.dedup_by_site = causal.dedup_by_site
        self.sagas = causal.saga_outcomes
        self.saga_failures = causal.saga_failures

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "DistribReport":
        return cls(CausalReport.from_records(records))

    @property
    def dedup_total(self) -> int:
        return sum(self.dedup_by_store.values())

    @property
    def replication_total(self) -> int:
        return sum(stat.count for stat in self.replication.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "replication_total": self.replication_total,
            "replication": {
                key: stat.to_dict()
                for key, stat in sorted(self.replication.items())
            },
            "gossip": {
                table: dict(entry)
                for table, entry in sorted(self.gossip.items())
            },
            "partitions": {
                pair: dict(entry)
                for pair, entry in sorted(self.partitions.items())
            },
            "dedup_total": self.dedup_total,
            "dedup_by_store": dict(sorted(self.dedup_by_store.items())),
            "dedup_by_site": dict(sorted(self.dedup_by_site.items())),
            "sagas": {
                saga: dict(sorted(statuses.items()))
                for saga, statuses in sorted(self.sagas.items())
            },
            "saga_failures": dict(sorted(self.saga_failures.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def render_distrib_text(report: DistribReport) -> str:
    """The operator-facing tables (``--format text``)."""
    lines = [
        f"distrib: {report.replication_total} replication applies, "
        f"{report.dedup_total} dedup suppressions, "
        f"{len(report.sagas)} saga names"
    ]
    if report.replication:
        lines.append("  replication lag (table/region):")
        for key, stat in sorted(report.replication.items()):
            data = stat.to_dict()
            lines.append(
                f"    {key:<24} n={data['count']:<5} "
                f"mean={data['mean_ms']:.1f}ms max={data['max_ms']:.1f}ms"
            )
    if report.gossip:
        lines.append("  gossip:")
        for table, entry in sorted(report.gossip.items()):
            lines.append(
                f"    {table:<24} sweeps={entry['sweeps']} "
                f"merges={entry['merges']}"
            )
    if report.partitions:
        lines.append("  partitions:")
        for pair, entry in sorted(report.partitions.items()):
            lines.append(
                f"    {pair:<24} cuts={entry['cuts']} heals={entry['heals']}"
            )
    if report.dedup_by_store:
        lines.append("  dedup by store:")
        for store, count in sorted(report.dedup_by_store.items()):
            lines.append(f"    {store:<12} {count}")
    if report.dedup_by_site:
        lines.append("  dedup by site:")
        for site, count in sorted(report.dedup_by_site.items()):
            lines.append(f"    {site:<16} {count}")
    if report.sagas:
        lines.append("  sagas:")
        for saga, statuses in sorted(report.sagas.items()):
            completed = statuses.get("completed", 0)
            compensated = statuses.get("compensated", 0)
            failures = report.saga_failures.get(saga, 0)
            lines.append(
                f"    {saga:<16} completed={completed} "
                f"compensated={compensated} failed_steps={failures}"
            )
    if len(lines) == 1:
        lines.append("  (no distrib activity in this trace)")
    return "\n".join(lines)
