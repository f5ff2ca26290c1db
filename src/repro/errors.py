"""Top-level exception hierarchy for the reproduction.

Platform-specific exception types (``SecurityException`` on Android,
``LocationException`` on S60, error codes on WebView) live inside their
platform packages, because platform-specific exception sets are part of the
fragmentation phenomenon the paper studies.  The types here are either
infrastructure errors of the simulation itself or the *uniform* error
surface that MobiVine exposes to applications.
"""

import json
from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for every error raised by the reproduction itself."""


class SimulationError(ReproError):
    """The simulated substrate was driven into an impossible state."""


class ClockError(SimulationError):
    """Virtual time was manipulated incorrectly (e.g. moved backwards)."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid inputs."""


class InputError(ReproError, ValueError):
    """An input document or command-line value is unusable.

    ``source`` names the file (or option) and ``line`` the 1-based line
    at fault, when known: ``str()`` reads ``SOURCE[:LINE]: reason``.
    """

    def __init__(self, reason: str, *, source: Optional[str] = None,
                 line: Optional[int] = None) -> None:
        super().__init__(reason)
        self.reason, self.source, self.line = reason, source, line

    def __str__(self) -> str:
        where = self.source or ""
        if self.line is not None:
            where = f"{where}:{self.line}" if where else f"line {self.line}"
        return f"{where}: {self.reason}" if where else self.reason


def json_object(text: str, *, line: Optional[int] = None) -> Dict[str, Any]:
    """Decode ``text`` as one JSON object, else raise :class:`InputError`;
    ``line`` is the 1-based line ``text`` came from, when it is one line."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg} at column {exc.colno}",
                         line=exc.lineno if line is None else line) from None
    if not isinstance(payload, dict):
        raise InputError("not a JSON object", line=line)
    return payload


class DescriptorError(ReproError):
    """An M-Proxy descriptor is malformed or fails schema validation."""


class RegistryError(ReproError):
    """Lookup in the proxy registry failed."""


class ProxyError(ReproError):
    """Base class of the uniform error surface exposed by M-Proxies.

    Platform exceptions are mapped onto subclasses of this type by each
    binding, per the binding plane's exception list.
    """

    #: Stable numeric code (used verbatim by the WebView JS bindings, where
    #: exceptions cannot cross the bridge and must travel as error codes).
    error_code = 1000

    #: Whether the failure class is transient — i.e. retrying the same
    #: operation may succeed.  Resilience policies only retry (and circuit
    #: breakers only count) transient errors; permission and argument
    #: errors will fail identically on every attempt.
    transient = False


class ProxyPermissionError(ProxyError):
    """The platform denied the operation (Android ``SecurityException``...)."""

    error_code = 1001


class ProxyUnavailableError(ProxyError):
    """The requested capability does not exist on this platform.

    The paper's example: the Call interface is not exposed on Nokia S60, so
    no Call proxy binding can exist there.
    """

    error_code = 1002


class ProxyInvalidArgumentError(ProxyError):
    """An argument violated the semantic plane's declared dimensions."""

    error_code = 1003


class ProxyPropertyError(ProxyError):
    """A ``set_property`` call used an unknown key or disallowed value."""

    error_code = 1004


class ProxyPlatformError(ProxyError):
    """A platform-internal failure surfaced through the proxy.

    Carries the original platform exception as ``__cause__`` so diagnostics
    survive the uniformization.
    """

    error_code = 1005


class ProxyTimeoutError(ProxyError):
    """The underlying platform operation did not finish in time."""

    error_code = 1006
    transient = True


class ProxyTransientError(ProxyError):
    """A recoverable failure: retrying the same operation may succeed.

    Concrete transient conditions usually surface as one of the refined
    subclasses below (network, bridge, sensor); this class is the generic
    catch-all and the base for resilience-layer errors.
    """

    error_code = 1007
    transient = True


class ProxyNetworkError(ProxyPlatformError):
    """A transport-level failure (request dropped, carrier unreachable).

    Subclasses :class:`ProxyPlatformError` so existing handlers of
    platform failures keep working, but is classified transient so
    resilience policies may retry it.
    """

    error_code = 1008
    transient = True


class ProxyBridgeError(ProxyPlatformError):
    """A WebView JS/Java bridge crossing was lost mid-flight."""

    error_code = 1009
    transient = True


class ProxyCircuitOpenError(ProxyTransientError):
    """The circuit breaker for this binding is open: the call was rejected
    without touching the platform.  Retrying after the breaker's reset
    timeout may succeed."""

    error_code = 1010


class ProxySensorError(ProxyPlatformError):
    """A device sensor is temporarily dark (e.g. GPS provider out of
    service, no fix available)."""

    error_code = 1011
    transient = True


class ProxyOverloadError(ProxyTransientError):
    """The concurrency runtime shed this request at admission.

    Raised (or delivered through a rejected future) when a dispatcher
    shard's bounded queue is full.  Transient by definition: the same
    request may be admitted once the queue drains — but the runtime
    itself never retries shed work, that choice belongs to the caller.

    ``context`` carries the structured shed decision — platform, shard
    index, queue depth and bound, priority class, shed reason — so a
    flight dump or a supervisor alert is self-explanatory without
    parsing the message text.  It stays on this side of the WebView
    bridge (only the code and message travel as the JSON envelope)."""

    error_code = 1012

    def __init__(self, message: str = "", *, context: dict = None) -> None:
        super().__init__(message)
        #: Structured shed decision (platform, shard, depth, bound,
        #: priority, reason, ...); empty when raised bare.
        self.context = dict(context or {})


class ProxyThrottledError(ProxyTransientError):
    """Admission control rejected this request over a rate budget.

    Raised (or delivered through a rejected future) when the submitting
    tenant's token bucket is empty.  Unlike a shed (1012) this is a
    *policed* rejection: the request never competed for a queue slot,
    and ``retry_after_ms`` tells the caller exactly how much virtual
    time must pass before the bucket can cover it — the resilience
    plane's backoff honours the hint when retrying.

    ``context`` carries the structured throttle decision (platform,
    tenant, operation, tokens remaining) like 1012's shed context."""

    error_code = 1013

    def __init__(
        self,
        message: str = "",
        *,
        retry_after_ms: float = 0.0,
        context: dict = None,
    ) -> None:
        super().__init__(message)
        #: Virtual milliseconds until the bucket can cover the request.
        self.retry_after_ms = float(retry_after_ms)
        #: Structured throttle decision (platform, tenant, operation, ...).
        self.context = dict(context or {})


class ProxyReplicaUnavailableError(ProxyTransientError):
    """The distributed data tier could not reach its required replicas.

    Raised by :class:`~repro.distrib.replication.ReplicatedTable` when a
    write cannot assemble its configured quorum — the origin region is
    partitioned from too many peers.  Transient by definition: the same
    write may succeed once the partition heals (or via anti-entropy).

    ``context`` carries the structured replica decision — origin region,
    key, required quorum and the reachable-replica count — mirroring the
    admission plane's 1012/1013 context convention, so a flight dump or
    supervisor alert is self-explanatory.  It stays on this side of the
    WebView bridge (only the code and message travel)."""

    error_code = 1014

    def __init__(self, message: str = "", *, context: dict = None) -> None:
        super().__init__(message)
        #: Structured replica decision (region, key, quorum, reachable).
        self.context = dict(context or {})
