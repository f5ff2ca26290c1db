"""Android binding of the HTTP proxy (Apache-client style underneath)."""

from __future__ import annotations

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.http.api import (
    HttpProxy,
    UniformHttpCallback,
    as_response_listener,
    degraded_response,
)
from repro.core.proxy.datatypes import HttpResult
from repro.device.network import HttpRequest
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.android.http import INTERNET, HttpGet, HttpPost
from repro.platforms.android.platform import AndroidPlatform


class AndroidHttpProxyImpl(HttpProxy):
    """``com.ibm.proxies.android.http.HttpProxyImpl``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: AndroidPlatform) -> None:
        super().__init__(descriptor, "android")
        self._platform = platform

    def _context(self, for_what: str) -> Context:
        context = self.properties.require("context", for_what)
        if not isinstance(context, Context):
            raise ProxyError(
                f"property 'context' must be an Android Context, got "
                f"{type(context).__name__}"
            )
        return context

    def get(self, url: str) -> HttpResult:
        self._validate_arguments("get", url=url)
        self._record("get", url=url)
        context = self._context("get")

        def attempt() -> HttpResult:
            client = self._platform.http_client(context)
            request = HttpGet(url)
            request.add_header("User-Agent", self.get_property("userAgent"))
            self._trace_event("binding.http_request", method="GET", url=url)
            response = client.execute(request)
            return HttpResult(
                status=response.get_status_line().get_status_code(),
                body=response.get_entity().get_content(),
                headers=response.get_all_headers(),
            )

        return self._invoke("get", attempt, fallback=degraded_response)

    def post(self, url: str, body: str) -> HttpResult:
        self._validate_arguments("post", url=url, body=body)
        self._record("post", url=url, length=len(body))
        context = self._context("post")

        def attempt() -> HttpResult:
            client = self._platform.http_client(context)
            request = HttpPost(url)
            request.add_header("User-Agent", self.get_property("userAgent"))
            request.add_header("Content-Type", self.get_property("contentType"))
            request.set_entity(body)
            self._trace_event("binding.http_request", method="POST", url=url)
            response = client.execute(request)
            return HttpResult(
                status=response.get_status_line().get_status_code(),
                body=response.get_entity().get_content(),
                headers=response.get_all_headers(),
            )

        return self._invoke("post", attempt, fallback=degraded_response)

    def get_async(self, url: str, response_listener: UniformHttpCallback) -> None:
        """Non-blocking fetch: the worker-thread idiom the blocking Apache
        client forces, modelled on the simulated network's async path."""
        self._validate_arguments("getAsync", url=url)
        self._record("getAsync", url=url)
        listener = as_response_listener(response_listener)
        context = self._context("getAsync")
        with self._guard("getAsync"):
            context.enforce_permission(INTERNET, "getAsync")
            request = HttpGet(url)  # validates the URL eagerly
            request.add_header("User-Agent", self.get_property("userAgent"))
            self._platform.charge_native("android.http")
            self._platform.device.network.request_async(
                HttpRequest(
                    method=request.method,
                    host=request.host,
                    path=request.path,
                    headers=request.headers(),
                ),
                on_response=lambda raw: listener.on_response(
                    HttpResult(status=raw.status, body=raw.body, headers=raw.headers)
                ),
                on_error=lambda exc: listener.on_error(str(exc)),
            )


register_implementation(
    "com.ibm.proxies.android.http.HttpProxyImpl", AndroidHttpProxyImpl
)
