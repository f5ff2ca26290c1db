"""WebView binding of the Calendar proxy (synchronous JSON envelopes)."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.calendar.android import AndroidCalendarProxyImpl
from repro.core.proxies.calendar.api import CalendarProxy
from repro.core.proxies.factory import register_implementation, standard_registry
from repro.core.proxies.webview_common import (
    WrapperBackend,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.datatypes import CalendarEvent
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import JsWindow, WebView

FACTORY_JS_NAME = "CalendarWrapperFactory"
WRAPPER_JS_NAME = "CalendarWrapper"


def _event_payload(event: CalendarEvent) -> Dict:
    return {
        "eventId": event.event_id,
        "summary": event.summary,
        "startMs": event.start_ms,
        "endMs": event.end_ms,
        "location": event.location,
    }


def _event_from_payload(payload: Dict) -> CalendarEvent:
    return CalendarEvent(
        event_id=payload["eventId"],
        summary=payload["summary"],
        start_ms=payload["startMs"],
        end_ms=payload["endMs"],
        location=payload.get("location", ""),
    )


class CalendarWrapperFactory:
    """Java side, step 1."""

    def __init__(self, backend: "CalendarWrapperJava") -> None:
        self._backend = backend

    def create_calendar_wrapper_instance(self) -> int:
        return self._backend.create_instance()


class CalendarWrapperJava:
    """Java side, step 2: the ``CalendarWrapper`` class behind the bridge."""

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        self._platform = platform
        self._context = context
        self._backend = WrapperBackend(platform.notification_table)

    def create_instance(self) -> int:
        proxy = AndroidCalendarProxyImpl(
            standard_registry().descriptor("Calendar"), self._platform.android
        )
        proxy.set_property("context", self._context)
        return self._backend.add_instance(proxy)

    # -- bridge entry points ---------------------------------------------------

    def set_property(self, handle: int, key: str, value_json: str) -> str:
        return self._backend.set_property_json(handle, key, value_json)

    def list_events(self, handle: int) -> str:
        try:
            events = self._backend.instance(handle).list_events()
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"events": [_event_payload(e) for e in events]})

    def events_between(self, handle: int, start_ms: float, end_ms: float) -> str:
        try:
            events = self._backend.instance(handle).events_between(start_ms, end_ms)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"events": [_event_payload(e) for e in events]})

    def add_event(self, handle: int, summary: str, start_ms: float, end_ms: float) -> str:
        try:
            event_id = self._backend.instance(handle).add_event(
                summary, start_ms, end_ms
            )
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"eventId": event_id})

    def remove_event(self, handle: int, event_id: str) -> str:
        try:
            self._backend.instance(handle).remove_event(event_id)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok()


def install_calendar_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> CalendarWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = CalendarWrapperJava(platform, context)
    webview.add_javascript_interface(
        CalendarWrapperFactory(wrapper), FACTORY_JS_NAME
    )
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class CalendarProxyJs(CalendarProxy):
    """JS side: ``com.ibm.proxies.webview.calendar.CalendarProxyJs``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: WebViewPlatform) -> None:
        super().__init__(descriptor, "webview")
        window = platform.active_window
        if window is None:
            raise ProxyError(
                "no page is loaded; construct the JS proxy inside a page script"
            )
        self._init_in_window(window)

    @classmethod
    def in_page(cls, window: JsWindow) -> "CalendarProxyJs":
        instance = cls.__new__(cls)
        CalendarProxy.__init__(
            instance, standard_registry().descriptor("Calendar"), "webview"
        )
        instance._init_in_window(window)
        return instance

    def _init_in_window(self, window: JsWindow) -> None:
        self._window = window
        factory = window.bridge_object(FACTORY_JS_NAME)
        self._wrapper = window.bridge_object(WRAPPER_JS_NAME)
        self._swi = factory.create_calendar_wrapper_instance()

    def set_property(self, key: str, value) -> None:
        super().set_property(key, value)
        decode_or_raise(self._wrapper.set_property(self._swi, key, json.dumps(value)))

    def list_events(self) -> List[CalendarEvent]:
        self._record("listEvents")
        payload = decode_or_raise(self._wrapper.list_events(self._swi))
        return [_event_from_payload(e) for e in payload["events"]]

    def events_between(self, start_ms: float, end_ms: float) -> List[CalendarEvent]:
        self._validate_arguments("eventsBetween", startMs=start_ms, endMs=end_ms)
        self._record("eventsBetween", start_ms=start_ms, end_ms=end_ms)
        payload = decode_or_raise(
            self._wrapper.events_between(self._swi, float(start_ms), float(end_ms))
        )
        return [_event_from_payload(e) for e in payload["events"]]

    def add_event(self, summary: str, start_ms: float, end_ms: float) -> str:
        self._validate_arguments(
            "addEvent", summary=summary, startMs=start_ms, endMs=end_ms
        )
        self._record("addEvent", summary=summary)
        payload = decode_or_raise(
            self._wrapper.add_event(self._swi, summary, float(start_ms), float(end_ms))
        )
        return payload["eventId"]

    def remove_event(self, event_id: str) -> None:
        self._validate_arguments("removeEvent", eventId=event_id)
        self._record("removeEvent", event_id=event_id)
        decode_or_raise(self._wrapper.remove_event(self._swi, event_id))


register_implementation(
    "com.ibm.proxies.webview.calendar.CalendarProxyJs", CalendarProxyJs
)
