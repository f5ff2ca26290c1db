"""WebView binding of the SMS proxy — the literal subject of Figure 6.

``SmsWrapperFactory.create_sms_wrapper_instance()`` → handle (``swi``);
``SmsWrapper.send_text_message(swi, ...)`` → notification id; a Java-side
callback object posts sent/delivered/failed results into the Notification
Table; the JS proxy's ``notifHandler`` polls and dispatches to the local
JS callback function.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.factory import register_implementation, standard_registry
from repro.core.proxies.sms.android import AndroidSmsProxyImpl
from repro.core.proxies.sms.api import SmsProxy, UniformSmsCallback, as_status_listener
from repro.core.proxies.webview_common import (
    NotificationHandler,
    WrapperBackend,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.callbacks import SmsStatusListener
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import JsWindow, WebView

FACTORY_JS_NAME = "SmsWrapperFactory"
WRAPPER_JS_NAME = "SmsWrapper"


class _TablePostingStatusListener(SmsStatusListener):
    """The figure's Java 'Callback object' for SMS results."""

    def __init__(
        self, backend: WrapperBackend, notification_id: str, platform: WebViewPlatform
    ) -> None:
        self._backend = backend
        self._notification_id = notification_id
        self._platform = platform

    def _post(self, event: str, message_id: str, reason: Optional[str]) -> None:
        self._backend.notifications.post(
            self._notification_id,
            "smsStatus",
            {"event": event, "messageId": message_id, "reason": reason},
            now_ms=self._platform.clock.now_ms,
        )

    def on_sent(self, message_id: str) -> None:
        self._post("sent", message_id, None)

    def on_delivered(self, message_id: str) -> None:
        self._post("delivered", message_id, None)

    def on_failed(self, message_id: str, reason: str) -> None:
        self._post("failed", message_id, reason)


class SmsWrapperFactory:
    """Java side, step 1 (figure: ``createSmsWrapperInstance``)."""

    def __init__(self, backend: "SmsWrapperJava") -> None:
        self._backend = backend

    def create_sms_wrapper_instance(self) -> int:
        return self._backend.create_instance()


class SmsWrapperJava:
    """Java side, step 2: the ``SmsWrapper`` class behind the bridge."""

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        self._platform = platform
        self._context = context
        self._backend = WrapperBackend(platform.notification_table)

    def create_instance(self) -> int:
        proxy = AndroidSmsProxyImpl(
            standard_registry().descriptor("Sms"), self._platform.android
        )
        proxy.set_property("context", self._context)
        return self._backend.add_instance(proxy)

    def instance_count(self) -> int:
        return self._backend.instance_count()

    # -- bridge entry points ---------------------------------------------------

    def set_property(self, handle: int, key: str, value_json: str) -> str:
        return self._backend.set_property_json(handle, key, value_json)

    def send_text_message(self, handle: int, destination: str, text: str) -> str:
        try:
            proxy = self._backend.instance(handle)
            notification_id = self._backend.notifications.new_id()
            listener = _TablePostingStatusListener(
                self._backend, notification_id, self._platform
            )
            message_id = proxy.send_text_message(destination, text, listener)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok(
            {"messageId": message_id, "notificationId": notification_id}
        )

    def get_notifications(self, notification_id: str) -> str:
        return self._backend.notifications.drain_json(notification_id)


def install_sms_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> SmsWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = SmsWrapperJava(platform, context)
    webview.add_javascript_interface(SmsWrapperFactory(wrapper), FACTORY_JS_NAME)
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class SmsProxyJs(SmsProxy):
    """JS side: ``com.ibm.proxies.webview.sms.SmsProxyJs``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: WebViewPlatform) -> None:
        super().__init__(descriptor, "webview")
        window = platform.active_window
        if window is None:
            raise ProxyError(
                "no page is loaded; construct the JS proxy inside a page script"
            )
        self._init_in_window(window)

    @classmethod
    def in_page(cls, window: JsWindow) -> "SmsProxyJs":
        instance = cls.__new__(cls)
        SmsProxy.__init__(instance, standard_registry().descriptor("Sms"), "webview")
        instance._init_in_window(window)
        return instance

    def _init_in_window(self, window: JsWindow) -> None:
        self._window = window
        # In-page construction bypasses the proxy factory; attach the
        # device hub so bridge-crossing invocations still trace.
        if self.observability is None:
            obs = getattr(window.platform.device, "obs", None)
            if obs is not None:
                self.attach_observability(obs)
        factory = window.bridge_object(FACTORY_JS_NAME)
        self._wrapper = window.bridge_object(WRAPPER_JS_NAME)
        self._swi = factory.create_sms_wrapper_instance()
        self._handlers: Dict[str, NotificationHandler] = {}

    def set_property(self, key: str, value) -> None:
        super().set_property(key, value)
        if key != "pollInterval":
            decode_or_raise(
                self._wrapper.set_property(self._swi, key, json.dumps(value))
            )

    def send_text_message(
        self,
        destination: str,
        text: str,
        status_listener: Optional[UniformSmsCallback] = None,
    ) -> str:
        self._validate_arguments("sendTextMessage", destination=destination, text=text)
        self._record("sendTextMessage", destination=destination, length=len(text))

        def attempt() -> Dict:
            return decode_or_raise(
                self._wrapper.send_text_message(self._swi, destination, text)
            )

        queue = getattr(self, "redelivery_queue", None)
        fallback = queue.fallback_for(destination, text) if queue else None
        payload = self._invoke("sendTextMessage", attempt, fallback=fallback)
        if not isinstance(payload, dict):
            return payload  # degraded: the redelivery queue entry's id
        message_id = payload["messageId"]
        notification_id = payload["notificationId"]
        listener = as_status_listener(status_listener)
        if listener is not None:
            def dispatch(notification: Dict) -> None:
                body = notification["payload"]
                event = body["event"]
                if event == "sent":
                    listener.on_sent(body["messageId"])
                elif event == "delivered":
                    listener.on_delivered(body["messageId"])
                else:
                    listener.on_failed(body["messageId"], body.get("reason") or "")

            handler = NotificationHandler(
                self._window,
                self._wrapper,
                notification_id,
                dispatch,
                poll_interval_ms=float(self.get_property("pollInterval")),
            )
            handler.start_polling()
            self._handlers[message_id] = handler
        return message_id

    def stop_tracking(self, message_id: str) -> None:
        """Stop polling for a message's status (JS-side convenience)."""
        handler = self._handlers.pop(message_id, None)
        if handler is not None:
            handler.stop_polling()


register_implementation("com.ibm.proxies.webview.sms.SmsProxyJs", SmsProxyJs)
