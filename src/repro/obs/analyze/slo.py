"""Declarative SLOs over the virtual clock.

An :class:`SloSpec` states the promise ("p-fraction of ``getLocation``
calls complete under T ms, with at most E errors") and the
:class:`SloEngine` checks it over a sliding virtual-time window, fed
either live (``observe``) or from exported dispatch spans
(``ingest_records``).

Evaluation emits:

* ``slo.attainment`` / ``slo.error_rate`` / ``slo.window_count`` gauges
  per SLO into the attached :class:`~repro.obs.metrics.MetricsRegistry`;
* an edge-triggered ``slo.breaches`` counter, and — when a tracer is
  attached — an ``slo:evaluate`` span carrying one ``slo.breach`` event
  per newly-breached SLO.

Everything is a pure function of the observation stream and the
evaluation times: no wall clock, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective for one proxied operation.

    ``platform=None`` matches the operation on every platform; the
    window slides on the device's virtual clock.
    """

    operation: str
    latency_threshold_ms: float
    target_ratio: float = 0.99
    error_budget: float = 0.01
    window_ms: float = 60_000.0
    platform: Optional[str] = None

    def __post_init__(self) -> None:
        if self.latency_threshold_ms <= 0:
            raise ConfigurationError("latency_threshold_ms must be positive")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ConfigurationError("target_ratio must be in (0, 1]")
        if not 0.0 <= self.error_budget <= 1.0:
            raise ConfigurationError("error_budget must be in [0, 1]")
        if self.window_ms <= 0:
            raise ConfigurationError("window_ms must be positive")

    @property
    def name(self) -> str:
        return f"{self.operation}@{self.platform or '*'}"

    def matches(self, operation: str, platform: Optional[str]) -> bool:
        if operation != self.operation:
            return False
        return self.platform is None or self.platform == platform

    @classmethod
    def parse(cls, text: str) -> "SloSpec":
        """``op:threshold_ms[:target[:window_ms[:platform]]]`` (CLI form)."""
        parts = text.split(":")
        if len(parts) < 2:
            raise ConfigurationError(
                f"SLO spec {text!r} must be op:threshold_ms[:target[:window_ms[:platform]]]"
            )
        kwargs: Dict[str, Any] = {
            "operation": parts[0],
            "latency_threshold_ms": float(parts[1]),
        }
        if len(parts) > 2 and parts[2]:
            kwargs["target_ratio"] = float(parts[2])
        if len(parts) > 3 and parts[3]:
            kwargs["window_ms"] = float(parts[3])
        if len(parts) > 4 and parts[4]:
            kwargs["platform"] = parts[4]
        return cls(**kwargs)


@dataclass
class SloStatus:
    """One SLO's state at one evaluation instant."""

    spec: SloSpec
    at_ms: float
    window_count: int
    good: int
    errors: int
    breached: bool
    reasons: List[str] = field(default_factory=list)

    @property
    def attainment(self) -> float:
        """Fraction of windowed calls that met the latency promise
        (vacuously 1.0 on an empty window)."""
        if not self.window_count:
            return 1.0
        return self.good / self.window_count

    @property
    def error_rate(self) -> float:
        if not self.window_count:
            return 0.0
        return self.errors / self.window_count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.spec.name,
            "operation": self.spec.operation,
            "platform": self.spec.platform,
            "at_ms": round(self.at_ms, 6),
            "window_count": self.window_count,
            "attainment": round(self.attainment, 6),
            "target_ratio": self.spec.target_ratio,
            "error_rate": round(self.error_rate, 6),
            "error_budget": self.spec.error_budget,
            "latency_threshold_ms": self.spec.latency_threshold_ms,
            "breached": self.breached,
            "reasons": list(self.reasons),
        }


class SloEngine:
    """Evaluates a set of :class:`SloSpec` over sliding windows.

    Parameters
    ----------
    specs:
        The objectives to track.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        the ``slo.*`` series on every :meth:`evaluate`.
    tracer:
        Optional tracer; newly-breached SLOs are recorded as an
        ``slo:evaluate`` span with one ``slo.breach`` event each.
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        *,
        metrics=None,
        tracer=None,
        flight=None,
    ) -> None:
        if not specs:
            raise ConfigurationError("an SLO engine needs at least one spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate SLO names: {sorted(names)}")
        self.specs = tuple(specs)
        self.metrics = metrics
        self.tracer = tracer
        #: Optional flight recorder; every newly-breached SLO triggers a dump.
        self.flight = flight
        #: per-spec window entries: (t_ms, latency_ms, ok)
        self._windows: Dict[str, List[Tuple[float, float, bool]]] = {
            spec.name: [] for spec in self.specs
        }
        self._breached: Dict[str, bool] = {spec.name: False for spec in self.specs}

    # -- feeding -------------------------------------------------------------

    def observe(
        self,
        operation: str,
        latency_ms: float,
        *,
        ok: bool = True,
        platform: Optional[str] = None,
        t_ms: float = 0.0,
    ) -> None:
        """Record one completed invocation against every matching SLO."""
        for spec in self.specs:
            if spec.matches(operation, platform):
                self._windows[spec.name].append((t_ms, latency_ms, ok))

    def ingest_records(self, records: Iterable[Dict[str, Any]]) -> int:
        """Feed exported span records; only finished ``dispatch:*`` spans
        count.  Returns the number of invocations ingested."""
        dispatches = [
            record
            for record in records
            if record.get("name", "").startswith("dispatch:")
            and record.get("end_virtual_ms") is not None
        ]
        dispatches.sort(key=lambda r: (r["end_virtual_ms"], r["span_id"]))
        for record in dispatches:
            operation = record["name"].split(":", 1)[1]
            attributes = record.get("attributes", {})
            start = record.get("start_virtual_ms") or 0.0
            end = record["end_virtual_ms"]
            self.observe(
                operation,
                max(0.0, end - start),
                ok=record.get("status") == "ok",
                platform=attributes.get("platform"),
                t_ms=end,
            )
        return len(dispatches)

    def ingest_spans(self, spans: Iterable) -> int:
        """Feed live :class:`~repro.obs.span.Span` objects."""
        return self.ingest_records(
            span.to_dict() for span in spans if span.finished
        )

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now_ms: float) -> List[SloStatus]:
        """Prune every window to ``(now - window, now]`` and judge each
        SLO, emitting metrics and breach events."""
        statuses: List[SloStatus] = []
        newly_breached: List[SloStatus] = []
        for spec in self.specs:
            window = [
                entry
                for entry in self._windows[spec.name]
                if now_ms - spec.window_ms < entry[0] <= now_ms
            ]
            self._windows[spec.name] = window
            good = sum(
                1 for _, latency, ok in window
                if ok and latency <= spec.latency_threshold_ms
            )
            errors = sum(1 for _, _, ok in window if not ok)
            status = SloStatus(
                spec=spec,
                at_ms=now_ms,
                window_count=len(window),
                good=good,
                errors=errors,
                breached=False,
            )
            if status.attainment < spec.target_ratio:
                status.reasons.append(
                    f"attainment {status.attainment:.4f} < target {spec.target_ratio}"
                )
            if status.error_rate > spec.error_budget:
                status.reasons.append(
                    f"error rate {status.error_rate:.4f} > budget {spec.error_budget}"
                )
            status.breached = bool(status.reasons)
            if status.breached and not self._breached[spec.name]:
                newly_breached.append(status)
            self._breached[spec.name] = status.breached
            statuses.append(status)

        self._emit(statuses, newly_breached)
        return statuses

    def _emit(
        self, statuses: List[SloStatus], newly_breached: List[SloStatus]
    ) -> None:
        if self.metrics is not None:
            self.metrics.counter("slo.evaluations").inc()
            for status in statuses:
                name = status.spec.name
                self.metrics.gauge("slo.attainment", slo=name).set(status.attainment)
                self.metrics.gauge("slo.error_rate", slo=name).set(status.error_rate)
                self.metrics.gauge("slo.window_count", slo=name).set(
                    status.window_count
                )
            for status in newly_breached:
                self.metrics.counter("slo.breaches", slo=status.spec.name).inc()
        if newly_breached and self.tracer is not None and self.tracer.enabled:
            with self.tracer.span("slo:evaluate", breached=len(newly_breached)):
                for status in newly_breached:
                    self.tracer.event(
                        "slo.breach",
                        slo=status.spec.name,
                        attainment=round(status.attainment, 6),
                        error_rate=round(status.error_rate, 6),
                        window_count=status.window_count,
                        reasons="; ".join(status.reasons),
                    )
        if self.flight is not None:
            for status in newly_breached:
                self.flight.trigger(
                    "slo.breach",
                    slo=status.spec.name,
                    attainment=round(status.attainment, 6),
                    error_rate=round(status.error_rate, 6),
                    reasons="; ".join(status.reasons),
                )

    def breached(self) -> List[str]:
        """Names of the SLOs currently in breach (as of the last
        :meth:`evaluate`)."""
        return sorted(name for name, state in self._breached.items() if state)
