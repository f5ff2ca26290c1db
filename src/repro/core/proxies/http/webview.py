"""WebView binding of the HTTP proxy.

Synchronous results are plain data and cross the bridge directly as JSON
envelopes.  The asynchronous ``getAsync`` path rides the Notification
Table like every other WebView callback — a JS function cannot cross the
bridge, so the Java side posts the response and the JS ``notifHandler``
polls it back.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.factory import register_implementation, standard_registry
from repro.core.proxies.http.android import AndroidHttpProxyImpl
from repro.core.proxies.http.api import (
    HttpProxy,
    UniformHttpCallback,
    as_response_listener,
    degraded_response,
)
from repro.core.proxies.webview_common import (
    NotificationHandler,
    WrapperBackend,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.callbacks import HttpResponseListener
from repro.core.proxy.datatypes import HttpResult
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import JsWindow, WebView

FACTORY_JS_NAME = "HttpWrapperFactory"
WRAPPER_JS_NAME = "HttpWrapper"


class HttpWrapperFactory:
    """Java side, step 1."""

    def __init__(self, backend: "HttpWrapperJava") -> None:
        self._backend = backend

    def create_http_wrapper_instance(self) -> int:
        return self._backend.create_instance()


class HttpWrapperJava:
    """Java side, step 2: the ``HttpWrapper`` class behind the bridge."""

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        self._platform = platform
        self._context = context
        self._backend = WrapperBackend(platform.notification_table)

    def create_instance(self) -> int:
        proxy = AndroidHttpProxyImpl(
            standard_registry().descriptor("Http"), self._platform.android
        )
        proxy.set_property("context", self._context)
        return self._backend.add_instance(proxy)

    # -- bridge entry points ---------------------------------------------------

    def set_property(self, handle: int, key: str, value_json: str) -> str:
        return self._backend.set_property_json(handle, key, value_json)

    def get(self, handle: int, url: str) -> str:
        try:
            result = self._backend.instance(handle).get(url)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"status": result.status, "body": result.body})

    def post(self, handle: int, url: str, body: str) -> str:
        try:
            result = self._backend.instance(handle).post(url, body)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"status": result.status, "body": result.body})

    def get_async(self, handle: int, url: str) -> str:
        """Start an async fetch; results arrive via the notification table."""
        backend = self._backend
        platform = self._platform
        notification_id = backend.notifications.new_id()

        class _TablePostingHttpListener(HttpResponseListener):
            def on_response(self, result: HttpResult) -> None:
                backend.notifications.post(
                    notification_id,
                    "httpResponse",
                    {"status": result.status, "body": result.body},
                    now_ms=platform.clock.now_ms,
                )

            def on_error(self, reason: str) -> None:
                backend.notifications.post(
                    notification_id,
                    "httpResponse",
                    {"error": reason},
                    now_ms=platform.clock.now_ms,
                )

        try:
            backend.instance(handle).get_async(url, _TablePostingHttpListener())
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"notificationId": notification_id})

    def get_notifications(self, notification_id: str) -> str:
        return self._backend.notifications.drain_json(notification_id)


def install_http_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> HttpWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = HttpWrapperJava(platform, context)
    webview.add_javascript_interface(HttpWrapperFactory(wrapper), FACTORY_JS_NAME)
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class HttpProxyJs(HttpProxy):
    """JS side: ``com.ibm.proxies.webview.http.HttpProxyJs``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: WebViewPlatform) -> None:
        super().__init__(descriptor, "webview")
        window = platform.active_window
        if window is None:
            raise ProxyError(
                "no page is loaded; construct the JS proxy inside a page script"
            )
        self._init_in_window(window)

    @classmethod
    def in_page(cls, window: JsWindow) -> "HttpProxyJs":
        instance = cls.__new__(cls)
        HttpProxy.__init__(instance, standard_registry().descriptor("Http"), "webview")
        instance._init_in_window(window)
        return instance

    def _init_in_window(self, window: JsWindow) -> None:
        self._window = window
        factory = window.bridge_object(FACTORY_JS_NAME)
        self._wrapper = window.bridge_object(WRAPPER_JS_NAME)
        self._swi = factory.create_http_wrapper_instance()

    def set_property(self, key: str, value) -> None:
        super().set_property(key, value)
        decode_or_raise(self._wrapper.set_property(self._swi, key, json.dumps(value)))

    def get(self, url: str) -> HttpResult:
        self._validate_arguments("get", url=url)
        self._record("get", url=url)

        def attempt() -> HttpResult:
            self._trace_event("binding.bridge_call", method="get", url=url)
            payload = decode_or_raise(self._wrapper.get(self._swi, url))
            return HttpResult(status=payload["status"], body=payload["body"])

        return self._invoke("get", attempt, fallback=degraded_response)

    def post(self, url: str, body: str) -> HttpResult:
        self._validate_arguments("post", url=url, body=body)
        self._record("post", url=url, length=len(body))

        def attempt() -> HttpResult:
            self._trace_event("binding.bridge_call", method="post", url=url)
            payload = decode_or_raise(self._wrapper.post(self._swi, url, body))
            return HttpResult(status=payload["status"], body=payload["body"])

        return self._invoke("post", attempt, fallback=degraded_response)

    #: JS polling period for async responses (no binding property; XHR-ish).
    ASYNC_POLL_INTERVAL_MS = 250.0

    def get_async(self, url: str, response_listener: UniformHttpCallback) -> None:
        self._validate_arguments("getAsync", url=url)
        self._record("getAsync", url=url)
        listener = as_response_listener(response_listener)
        payload = decode_or_raise(self._wrapper.get_async(self._swi, url))
        notification_id = payload["notificationId"]
        holder: Dict[str, NotificationHandler] = {}

        def dispatch(notification: Dict) -> None:
            body = notification["payload"]
            if "error" in body:
                listener.on_error(body["error"])
            else:
                listener.on_response(
                    HttpResult(status=body["status"], body=body["body"])
                )
            holder["handler"].stop_polling()  # one-shot

        handler = NotificationHandler(
            self._window,
            self._wrapper,
            notification_id,
            dispatch,
            poll_interval_ms=self.ASYNC_POLL_INTERVAL_MS,
        )
        holder["handler"] = handler
        handler.start_polling()


register_implementation("com.ibm.proxies.webview.http.HttpProxyJs", HttpProxyJs)
