"""Android binding of the Calendar proxy (calendar provider underneath)."""

from __future__ import annotations

from typing import List

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.calendar.api import CalendarProxy
from repro.core.proxies.factory import register_implementation
from repro.core.proxy.datatypes import CalendarEvent
from repro.errors import ProxyError, ProxyInvalidArgumentError
from repro.platforms.android.calendar_provider import (
    CALENDAR_URI,
    COLUMN_DTEND,
    COLUMN_DTSTART,
    COLUMN_EVENT_LOCATION,
    COLUMN_ID,
    COLUMN_TITLE,
)
from repro.platforms.android.contacts import ContentValues
from repro.platforms.android.context import Context
from repro.platforms.android.platform import AndroidPlatform


class AndroidCalendarProxyImpl(CalendarProxy):
    """``com.ibm.proxies.android.calendar.CalendarProxyImpl``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: AndroidPlatform) -> None:
        super().__init__(descriptor, "android")
        self._platform = platform

    def _resolver(self, for_what: str):
        context = self.properties.require("context", for_what)
        if not isinstance(context, Context):
            raise ProxyError(
                f"property 'context' must be an Android Context, got "
                f"{type(context).__name__}"
            )
        return context.get_content_resolver()

    @staticmethod
    def _drain(cursor) -> List[CalendarEvent]:
        events = []
        while cursor.move_to_next():
            events.append(
                CalendarEvent(
                    event_id=cursor.get_string(COLUMN_ID),
                    summary=cursor.get_string(COLUMN_TITLE),
                    start_ms=float(cursor.get_string(COLUMN_DTSTART)),
                    end_ms=float(cursor.get_string(COLUMN_DTEND)),
                    location=cursor.get_string(COLUMN_EVENT_LOCATION) or "",
                )
            )
        cursor.close()
        return events

    def list_events(self) -> List[CalendarEvent]:
        self._record("listEvents")
        with self._guard("listEvents"):
            return self._drain(self._resolver("listEvents").query(CALENDAR_URI))

    def events_between(self, start_ms: float, end_ms: float) -> List[CalendarEvent]:
        self._validate_arguments("eventsBetween", startMs=start_ms, endMs=end_ms)
        self._record("eventsBetween", start_ms=start_ms, end_ms=end_ms)
        # The provider has no window selection; filter client-side like a
        # real app would with a date-range selection clause.
        return [
            event
            for event in self.list_events()
            if event.start_ms < end_ms and start_ms < event.end_ms
        ]

    def add_event(self, summary: str, start_ms: float, end_ms: float) -> str:
        self._validate_arguments(
            "addEvent", summary=summary, startMs=start_ms, endMs=end_ms
        )
        if end_ms < start_ms:
            raise ProxyInvalidArgumentError("event ends before it starts")
        self._record("addEvent", summary=summary)
        with self._guard("addEvent"):
            values = ContentValues()
            values.put(COLUMN_TITLE, summary)
            values.put(COLUMN_DTSTART, start_ms)
            values.put(COLUMN_DTEND, end_ms)
            values.put(COLUMN_EVENT_LOCATION, self.get_property("eventLocation"))
            row_uri = self._resolver("addEvent").insert(CALENDAR_URI, values)
            return row_uri.rsplit("/", 1)[-1]

    def remove_event(self, event_id: str) -> None:
        self._validate_arguments("removeEvent", eventId=event_id)
        self._record("removeEvent", event_id=event_id)
        with self._guard("removeEvent"):
            self._resolver("removeEvent").delete(f"{CALENDAR_URI}/{event_id}")


register_implementation(
    "com.ibm.proxies.android.calendar.CalendarProxyImpl", AndroidCalendarProxyImpl
)
