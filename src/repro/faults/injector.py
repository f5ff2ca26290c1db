"""The runtime half of the fault plane: plan -> concrete fault decisions.

Determinism contract
--------------------
Each fault *site* gets its own RNG stream, seeded as ``"{seed}/{site}"``
(string seeds hash deterministically in Python 3).  A site's draw
sequence therefore depends only on the plan seed and on how many times
*that site* was consulted — never on wall-clock time, never on consult
order across sites.  Two runs of the same scenario with the same plan
produce identical fault schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.plan import FAULT_SITES, FaultPlan, FaultRule
from repro.util.clock import SimulatedClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


@dataclass(frozen=True)
class InjectedFault:
    """One concrete fault decision handed back to a substrate component."""

    site: str
    kind: str
    at_ms: float
    rule: FaultRule


class FaultInjector:
    """Consults a :class:`FaultPlan` on behalf of one device.

    Substrate components call :meth:`decide` at their fault site; a
    ``None`` return means "behave normally".  An injector with no plan
    (or no rules for a site) is a near-free no-op, so the hooks stay in
    place even for fault-free runs.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        clock: Optional[SimulatedClock] = None,
        *,
        observability: Optional["Observability"] = None,
    ) -> None:
        self._plan = plan or FaultPlan()
        self._clock = clock
        self._rules: Dict[str, tuple] = {
            site: self._plan.rules_for(site) for site in self._plan.sites
        }
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{self._plan.seed}/{site}")
            for site in self._plan.sites
        }
        self._fired: Dict[int, int] = {}  # id(rule) -> times fired
        self._log: List[InjectedFault] = []
        if observability is None:
            from repro.obs import MetricsRegistry

            self._obs = None
            self._metrics = MetricsRegistry()
        else:
            self._obs = observability
            self._metrics = observability.metrics

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def active(self) -> bool:
        """Whether any rule exists at all (cheap fault-free check)."""
        return bool(self._rules)

    def has_rules(self, site: str) -> bool:
        """Whether the plan has rules for ``site``: then every consult
        draws from the site's stream, so none may be skipped."""
        return bool(self._rules.get(site))

    def bind_clock(self, clock: SimulatedClock) -> None:
        """Late-bind the virtual clock (device wiring convenience)."""
        self._clock = clock

    def bind_observability(self, observability: "Observability") -> None:
        """Late-bind the observability hub (device wiring convenience).

        Faults already counted stay in the injector's previous registry;
        bind before running the scenario.
        """
        self._obs = observability
        self._metrics = observability.metrics

    def decide(self, site: str) -> Optional[InjectedFault]:
        """One consult of ``site``; returns the fault to inject, if any.

        The first active rule wins.  Every consult of a site with rules
        draws exactly once from that site's RNG stream regardless of
        which rule matches, keeping streams aligned across runs even
        when windows open and close.
        """
        rules = self._rules.get(site)
        if not rules:
            if site not in FAULT_SITES:
                raise KeyError(f"unknown fault site {site!r}")
            return None
        now = self._clock.now_ms if self._clock is not None else 0.0
        draw = self._rngs[site].random()
        for rule in rules:
            if not rule.active_at(now):
                continue
            fired = self._fired.get(id(rule), 0)
            if rule.max_faults is not None and fired >= rule.max_faults:
                continue
            if draw < rule.rate:
                self._fired[id(rule)] = fired + 1
                fault = InjectedFault(site=site, kind=rule.kind, at_ms=now, rule=rule)
                self._log.append(fault)
                self._metrics.counter(
                    "faults.injected", site=site, kind=rule.kind
                ).inc()
                if self._obs is not None and self._obs.tracer.enabled:
                    self._obs.tracer.event(
                        "fault.injected", site=site, kind=rule.kind
                    )
                return fault
            return None  # first active rule decides, fault or not
        return None

    # -- evaluation surface ---------------------------------------------------

    @property
    def injected_log(self) -> List[InjectedFault]:
        """Every fault injected so far, in consult order."""
        return list(self._log)

    def counts(self) -> Dict[str, Dict[str, int]]:
        """site -> kind -> number of faults injected (registry-backed)."""
        out: Dict[str, Dict[str, int]] = {}
        for counter in self._metrics.collect("faults.injected"):
            site = counter.labels["site"]
            out.setdefault(site, {})[counter.labels["kind"]] = counter.value
        return out

    def total_injected(self) -> int:
        return len(self._log)

    def schedule(self) -> List[tuple]:
        """The reproducibility fingerprint: ``(site, kind, at_ms)`` tuples."""
        return [(f.site, f.kind, f.at_ms) for f in self._log]
