"""A small synchronous publish/subscribe bus.

Used by the device hardware (GPS fixes, radio state changes) and by the
Android substrate's broadcast machinery.  Delivery is synchronous and in
subscription order, which keeps platform behaviour deterministic under the
virtual clock.
"""

from __future__ import annotations

import fnmatch
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

Handler = Callable[[str, Any], None]

#: How many of the most recent published topics a bus remembers for
#: :attr:`EventBus.published_topics`.
PUBLISH_LOG_SIZE = 1024


@dataclass
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; detaches the handler."""

    bus: "EventBus"
    topic_pattern: str
    handler: Handler = field(repr=False)
    token: int = 0
    active: bool = True

    def unsubscribe(self) -> None:
        """Stop receiving events.  Idempotent."""
        if self.active:
            self.active = False
            self.bus._remove(self)


class EventBus:
    """Topic-based synchronous event bus with glob topic patterns.

    Topics are dotted strings such as ``"gps.fix"`` or ``"radio.sms.sent"``.
    Patterns use :mod:`fnmatch` globbing, so ``"radio.*"`` receives every
    radio event.
    """

    def __init__(self) -> None:
        self._subs: List[Subscription] = []
        self._tokens = itertools.count(1)
        #: topic -> matching subscriptions in subscription order; cleared
        #: whenever the subscription set changes.
        self._routes: Dict[str, Tuple[Subscription, ...]] = {}
        self._delivery_log: deque = deque(maxlen=PUBLISH_LOG_SIZE)

    def subscribe(self, topic_pattern: str, handler: Handler) -> Subscription:
        """Register ``handler`` for every topic matching ``topic_pattern``."""
        sub = Subscription(self, topic_pattern, handler, token=next(self._tokens))
        self._subs.append(sub)
        self._routes.clear()
        return sub

    def _remove(self, sub: Subscription) -> None:
        self._subs = [s for s in self._subs if s.token != sub.token]
        self._routes.clear()

    def _route(self, topic: str) -> Tuple[Subscription, ...]:
        route = self._routes.get(topic)
        if route is None:
            route = self._routes[topic] = tuple(
                sub
                for sub in self._subs
                if fnmatch.fnmatchcase(topic, sub.topic_pattern)
            )
        return route

    def publish(self, topic: str, payload: Any = None) -> int:
        """Deliver ``payload`` to all matching subscribers, in order.

        Returns the number of handlers invoked.  Handlers that subscribe
        during delivery affect only subsequent publishes; a handler
        unsubscribed during delivery is skipped if it has not run yet.
        """
        route = self._routes.get(topic)
        if route is None:
            route = self._route(topic)
        delivered = 0
        for sub in route:
            if sub.active:
                sub.handler(topic, payload)
                delivered += 1
        self._delivery_log.append(topic)
        return delivered

    def subscriber_count(self, topic: str) -> int:
        """Number of active subscribers that would receive ``topic``."""
        return sum(1 for sub in self._route(topic) if sub.active)

    @property
    def published_topics(self) -> List[str]:
        """Recent topics, oldest first: the last :data:`PUBLISH_LOG_SIZE`
        publishes (test/debug aid)."""
        return list(self._delivery_log)

    def clear_log(self) -> None:
        """Forget the publish log (the subscriptions stay)."""
        self._delivery_log.clear()


class TypedSignal:
    """A single-topic variant of :class:`EventBus` with positional payloads.

    Handy for hardware units that expose exactly one kind of notification
    (e.g. a battery level signal).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._handlers: List[Callable[..., None]] = []

    def connect(self, handler: Callable[..., None]) -> Callable[[], None]:
        """Attach ``handler``; returns a zero-arg disconnect function."""
        self._handlers.append(handler)

        def disconnect() -> None:
            if handler in self._handlers:
                self._handlers.remove(handler)

        return disconnect

    def emit(self, *args: Any, **kwargs: Any) -> int:
        """Call every connected handler; returns how many ran."""
        handlers = list(self._handlers)
        for handler in handlers:
            handler(*args, **kwargs)
        return len(handlers)

    def __len__(self) -> int:
        return len(self._handlers)
