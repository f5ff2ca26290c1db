"""Fault plans: declarative, seedable descriptions of substrate failures.

A plan is immutable data — *what* can fail, at *which rate*, inside
*which virtual-time window*.  The :class:`~repro.faults.injector.FaultInjector`
turns the plan into concrete fault decisions with deterministic per-site
RNG streams.  Keeping the plan free of any runtime state means the same
plan object can drive many devices (each device binds its own injector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Fault sites and the kinds each site understands.  A *site* is a named
#: choke point in the simulated substrate; a *kind* selects the failure
#: mode injected there.
FAULT_SITES: Dict[str, Tuple[str, ...]] = {
    # SimulatedNetwork.request / request_async.  ``ack_lost`` applies the
    # write and *then* loses the acknowledgement — the duplicate-side-effect
    # scenario the idempotency plane exists for.
    "network.request": ("drop", "timeout", "http_error", "ack_lost"),
    # GpsReceiver._emit_fix: consulted on every tick while a plan has a
    # rule for this site
    "gps.fix": ("lost", "stale"),
    # SmsCenter.submit (``ack_lost`` as above: message accepted, ack lost)
    "sms.submit": ("carrier_unreachable", "ack_lost"),
    # _BridgeMethod.__call__ (JS -> Java crossing)
    "webview.bridge": ("bridge_fault",),
    # NotificationTable.post (Java -> JS async result)
    "webview.notification": ("drop",),
    # ReplicatedTable._send (inter-region replication message)
    "distrib.replication": ("drop",),
}

#: Every known fault kind (union over sites).
FAULT_KINDS: Tuple[str, ...] = tuple(
    sorted({kind for kinds in FAULT_SITES.values() for kind in kinds})
)


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault plan.

    Parameters
    ----------
    site:
        Which substrate choke point this rule applies to (see
        :data:`FAULT_SITES`).
    kind:
        The failure mode to inject there.
    rate:
        Probability in ``[0, 1]`` that any single consult of the site
        triggers this rule.
    start_ms / end_ms:
        Virtual-time window in which the rule is active.  ``end_ms=None``
        means "forever" — useful for sustained-outage (breaker) tests.
    max_faults:
        Optional cap on how many times this rule may fire.
    status:
        HTTP status served by ``http_error`` injections.
    hold_ms:
        Virtual time a ``timeout`` injection stalls before surfacing.
    """

    site: str
    kind: str
    rate: float
    start_ms: float = 0.0
    end_ms: Optional[float] = None
    max_faults: Optional[int] = None
    status: int = 503
    hold_ms: float = 5_000.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known: {sorted(FAULT_SITES)}"
            )
        if self.kind not in FAULT_SITES[self.site]:
            raise ConfigurationError(
                f"site {self.site!r} has no fault kind {self.kind!r}; "
                f"known: {FAULT_SITES[self.site]}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {self.rate}")
        if self.start_ms < 0:
            raise ConfigurationError("start_ms cannot be negative")
        if self.end_ms is not None and self.end_ms <= self.start_ms:
            raise ConfigurationError("end_ms must be after start_ms")
        if self.max_faults is not None and self.max_faults < 1:
            raise ConfigurationError("max_faults must be >= 1 when given")
        if self.hold_ms < 0:
            raise ConfigurationError("hold_ms cannot be negative")

    def active_at(self, now_ms: float) -> bool:
        """Whether the rule's virtual-time window covers ``now_ms``."""
        if now_ms < self.start_ms:
            return False
        return self.end_ms is None or now_ms < self.end_ms


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of rules.

    The first active rule for a site wins on each consult, so put more
    specific (windowed) rules before broad background-rate ones.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def rules_for(self, site: str) -> Tuple[FaultRule, ...]:
        return tuple(rule for rule in self.rules if rule.site == site)

    @property
    def sites(self) -> frozenset:
        return frozenset(rule.site for rule in self.rules)

    # -- canned plans ---------------------------------------------------------

    @classmethod
    def transient(
        cls, rate: float, *, seed: int = 0, start_ms: float = 0.0
    ) -> "FaultPlan":
        """A uniform transient-fault plan: every site misbehaves at
        ``rate`` with its most representative recoverable failure.

        ``start_ms`` delays the whole plan — useful to let app setup
        (which runs outside the resilience guards, e.g. WebView wrapper
        construction) finish on a healthy substrate before the shaking
        starts.
        """
        return cls(
            seed=seed,
            rules=(
                FaultRule("network.request", "drop", rate, start_ms=start_ms),
                FaultRule("gps.fix", "lost", rate, start_ms=start_ms),
                FaultRule(
                    "sms.submit", "carrier_unreachable", rate, start_ms=start_ms
                ),
                FaultRule("webview.bridge", "bridge_fault", rate, start_ms=start_ms),
                FaultRule(
                    "webview.notification", "drop", rate, start_ms=start_ms
                ),
                FaultRule(
                    "distrib.replication", "drop", rate, start_ms=start_ms
                ),
            ),
        )

    @classmethod
    def network_blackout(
        cls, start_ms: float, end_ms: Optional[float] = None, *, seed: int = 0
    ) -> "FaultPlan":
        """A sustained total network outage (drives breakers open)."""
        return cls(
            seed=seed,
            rules=(
                FaultRule(
                    "network.request", "drop", 1.0, start_ms=start_ms, end_ms=end_ms
                ),
            ),
        )
