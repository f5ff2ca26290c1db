"""Admission-control analytics over exported traces.

``python -m repro.obs admission TRACE`` folds a JSONL trace export into
one :class:`AdmissionReport`: how many submissions each priority class
shed or throttled (from the enriched ``queue.shed`` /
``queue.throttled`` span events), why (the ``reason`` attribute — door
rejections vs priority evictions), and what the autoscaler did about it
(the ``autoscale.resize`` event stream).  It is the post-hoc view of
the live ``admission.*`` metric namespace — everything here is
recomputed from the trace alone, so a saved export from CI answers
"who got shed and did the fleet scale?" without rerunning anything.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

__all__ = ["AdmissionReport", "render_admission_text"]

#: Span events this report folds (name → report bucket).
_REJECTION_EVENTS = ("queue.shed", "queue.throttled")


class AdmissionReport:
    """Shed / throttle / autoscale activity folded from one trace."""

    def __init__(self) -> None:
        #: priority name → rejection count, per rejection kind.
        self.shed_by_priority: Dict[str, int] = {}
        self.throttled_by_priority: Dict[str, int] = {}
        #: shed reason (``queue_full`` / ``evicted``) → count.
        self.shed_by_reason: Dict[str, int] = {}
        #: platform → rejection count (both kinds).
        self.by_platform: Dict[str, int] = {}
        #: tenant → throttle count (from the 1013 context).
        self.throttled_by_tenant: Dict[str, int] = {}
        #: autoscaler decisions in trace order.
        self.resizes: List[Dict[str, Any]] = []

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "AdmissionReport":
        report = cls()
        for record in records:
            for event in record.get("events", ()):
                name = event.get("name")
                attributes = event.get("attributes", {})
                priority = str(attributes.get("priority", "unknown"))
                platform = str(attributes.get("platform", "unknown"))
                if name == "queue.shed":
                    reason = str(attributes.get("reason", "unknown"))
                    _bump(report.shed_by_priority, priority)
                    _bump(report.shed_by_reason, reason)
                    _bump(report.by_platform, platform)
                elif name == "queue.throttled":
                    _bump(report.throttled_by_priority, priority)
                    _bump(report.by_platform, platform)
                    _bump(
                        report.throttled_by_tenant,
                        str(attributes.get("tenant", "unknown")),
                    )
                elif name == "autoscale.resize":
                    report.resizes.append(
                        {
                            "t_ms": event.get("t_virtual_ms"),
                            "platform": platform,
                            "from": attributes.get("from_shards"),
                            "to": attributes.get("to_shards"),
                            "direction": attributes.get("direction"),
                        }
                    )
        return report

    @property
    def shed_total(self) -> int:
        return sum(self.shed_by_priority.values())

    @property
    def throttled_total(self) -> int:
        return sum(self.throttled_by_priority.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shed_total": self.shed_total,
            "throttled_total": self.throttled_total,
            "shed_by_priority": dict(sorted(self.shed_by_priority.items())),
            "throttled_by_priority": dict(
                sorted(self.throttled_by_priority.items())
            ),
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "by_platform": dict(sorted(self.by_platform.items())),
            "throttled_by_tenant": dict(
                sorted(self.throttled_by_tenant.items())
            ),
            "resizes": list(self.resizes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _bump(table: Dict[str, int], key: str) -> None:
    table[key] = table.get(key, 0) + 1


def render_admission_text(report: AdmissionReport) -> str:
    """The operator-facing table (``--format text``)."""
    lines = [
        f"admission: {report.shed_total} shed, "
        f"{report.throttled_total} throttled, "
        f"{len(report.resizes)} autoscaler resizes"
    ]
    if report.shed_by_priority:
        lines.append("  shed by priority:")
        for priority, count in sorted(report.shed_by_priority.items()):
            lines.append(f"    {priority:<8} {count}")
    if report.shed_by_reason:
        lines.append("  shed by reason:")
        for reason, count in sorted(report.shed_by_reason.items()):
            lines.append(f"    {reason:<12} {count}")
    if report.throttled_by_tenant:
        lines.append("  throttled by tenant:")
        for tenant, count in sorted(report.throttled_by_tenant.items()):
            lines.append(f"    {tenant:<12} {count}")
    if report.by_platform:
        lines.append("  rejections by platform:")
        for platform, count in sorted(report.by_platform.items()):
            lines.append(f"    {platform:<8} {count}")
    if report.resizes:
        lines.append("  autoscaler:")
        for resize in report.resizes:
            t_ms = resize.get("t_ms")
            stamp = f"{t_ms:.1f}ms" if isinstance(t_ms, (int, float)) else "?"
            lines.append(
                f"    @{stamp} {resize.get('platform')}: "
                f"{resize.get('from')} -> {resize.get('to')} "
                f"({resize.get('direction')})"
            )
    if len(lines) == 1:
        lines.append("  (no admission activity in this trace)")
    return "\n".join(lines)
