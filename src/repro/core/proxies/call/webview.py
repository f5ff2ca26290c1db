"""WebView binding of the Call proxy (Notification-Table pattern)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.call.android import AndroidCallProxyImpl
from repro.core.proxies.call.api import CallProxy, UniformCallCallback, as_call_listener
from repro.core.proxies.factory import register_implementation, standard_registry
from repro.core.proxies.webview_common import (
    NotificationHandler,
    WrapperBackend,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.callbacks import CallStateListener
from repro.core.proxy.datatypes import CallHandle, CallOutcome
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import JsWindow, WebView

FACTORY_JS_NAME = "CallWrapperFactory"
WRAPPER_JS_NAME = "CallWrapper"


class _TablePostingCallListener(CallStateListener):
    """Java-side callback object posting call states to the table."""

    def __init__(
        self, backend: WrapperBackend, notification_id: str, platform: WebViewPlatform
    ) -> None:
        self._backend = backend
        self._notification_id = notification_id
        self._platform = platform

    def _post(self, event: str, call: CallHandle) -> None:
        self._backend.notifications.post(
            self._notification_id,
            "callState",
            {
                "event": event,
                "callId": call.call_id,
                "outcome": call.outcome.value if call.outcome is not None else None,
            },
            now_ms=self._platform.clock.now_ms,
        )

    def on_ringing(self, call: CallHandle) -> None:
        self._post("ringing", call)

    def on_answered(self, call: CallHandle) -> None:
        self._post("answered", call)

    def on_finished(self, call: CallHandle) -> None:
        self._post("finished", call)


class CallWrapperFactory:
    """Java side, step 1."""

    def __init__(self, backend: "CallWrapperJava") -> None:
        self._backend = backend

    def create_call_wrapper_instance(self) -> int:
        return self._backend.create_instance()


class CallWrapperJava:
    """Java side, step 2: the ``CallWrapper`` class behind the bridge."""

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        self._platform = platform
        self._context = context
        self._backend = WrapperBackend(platform.notification_table)
        #: call id → the Java-side uniform handle (JS only gets primitives).
        self._handles: Dict[str, CallHandle] = {}

    def create_instance(self) -> int:
        proxy = AndroidCallProxyImpl(
            standard_registry().descriptor("Call"), self._platform.android
        )
        proxy.set_property("context", self._context)
        return self._backend.add_instance(proxy)

    # -- bridge entry points ---------------------------------------------------

    def set_property(self, handle: int, key: str, value_json: str) -> str:
        return self._backend.set_property_json(handle, key, value_json)

    def make_a_call(self, handle: int, number: str) -> str:
        try:
            proxy = self._backend.instance(handle)
            notification_id = self._backend.notifications.new_id()
            listener = _TablePostingCallListener(
                self._backend, notification_id, self._platform
            )
            call_handle = proxy.make_a_call(number, listener)
        except ProxyError as exc:
            return encode_error(exc)
        self._handles[call_handle.call_id] = call_handle
        return encode_ok(
            {"callId": call_handle.call_id, "notificationId": notification_id}
        )

    def end_call(self, handle: int, call_id: str) -> str:
        java_handle = self._handles.get(call_id)
        if java_handle is None:
            return encode_ok()
        try:
            self._backend.instance(handle).end_call(java_handle)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok()

    def get_notifications(self, notification_id: str) -> str:
        return self._backend.notifications.drain_json(notification_id)


def install_call_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> CallWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = CallWrapperJava(platform, context)
    webview.add_javascript_interface(CallWrapperFactory(wrapper), FACTORY_JS_NAME)
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class CallProxyJs(CallProxy):
    """JS side: ``com.ibm.proxies.webview.call.CallProxyJs``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: WebViewPlatform) -> None:
        super().__init__(descriptor, "webview")
        window = platform.active_window
        if window is None:
            raise ProxyError(
                "no page is loaded; construct the JS proxy inside a page script"
            )
        self._init_in_window(window)

    @classmethod
    def in_page(cls, window: JsWindow) -> "CallProxyJs":
        instance = cls.__new__(cls)
        CallProxy.__init__(instance, standard_registry().descriptor("Call"), "webview")
        instance._init_in_window(window)
        return instance

    def _init_in_window(self, window: JsWindow) -> None:
        self._window = window
        factory = window.bridge_object(FACTORY_JS_NAME)
        self._wrapper = window.bridge_object(WRAPPER_JS_NAME)
        self._swi = factory.create_call_wrapper_instance()
        self._handlers: Dict[str, NotificationHandler] = {}

    def make_a_call(
        self,
        number: str,
        call_listener: Optional[UniformCallCallback] = None,
    ) -> CallHandle:
        self._validate_arguments("makeACall", number=number)
        self._record("makeACall", number=number)
        def attempt() -> Dict:
            self._trace_event("binding.bridge_call", method="makeACall")
            return decode_or_raise(self._wrapper.make_a_call(self._swi, number))

        payload = self._invoke("makeACall", attempt)
        call_id = payload["callId"]
        notification_id = payload["notificationId"]
        # The JS domain keeps its own mirror handle; the Java one stays put.
        handle = CallHandle(call_id=call_id, number=number)
        listener = as_call_listener(call_listener)
        if listener is not None:
            def dispatch(notification: Dict) -> None:
                body = notification["payload"]
                event = body["event"]
                if event == "ringing":
                    listener.on_ringing(handle)
                elif event == "answered":
                    handle.answered = True
                    listener.on_answered(handle)
                else:
                    outcome = body.get("outcome")
                    handle.outcome = (
                        CallOutcome(outcome) if outcome else CallOutcome.FAILED
                    )
                    listener.on_finished(handle)
                    self._stop_tracking(call_id)

            handler = NotificationHandler(
                self._window,
                self._wrapper,
                notification_id,
                dispatch,
                poll_interval_ms=float(self.get_property("pollInterval")),
            )
            handler.start_polling()
            self._handlers[call_id] = handler
        return handle

    def end_call(self, call_handle: CallHandle) -> None:
        self._record("endCall", call_id=call_handle.call_id)
        self._invoke(
            "endCall",
            lambda: decode_or_raise(
                self._wrapper.end_call(self._swi, call_handle.call_id)
            ),
        )

    def _stop_tracking(self, call_id: str) -> None:
        handler = self._handlers.pop(call_id, None)
        if handler is not None:
            handler.stop_polling()


register_implementation("com.ibm.proxies.webview.call.CallProxyJs", CallProxyJs)
