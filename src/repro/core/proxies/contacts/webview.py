"""WebView binding of the Contacts proxy.

Contact data is plain values, so the bridge calls are synchronous: lists
cross as JSON arrays inside the usual envelopes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.contacts.android import AndroidContactsProxyImpl
from repro.core.proxies.contacts.api import ContactsProxy
from repro.core.proxies.factory import register_implementation, standard_registry
from repro.core.proxies.webview_common import (
    WrapperBackend,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.datatypes import Contact
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import JsWindow, WebView

FACTORY_JS_NAME = "ContactsWrapperFactory"
WRAPPER_JS_NAME = "ContactsWrapper"


def _contact_payload(contact: Contact) -> Dict:
    return {
        "contactId": contact.contact_id,
        "name": contact.name,
        "phoneNumbers": list(contact.phone_numbers),
        "email": contact.email,
    }


def _contact_from_payload(payload: Dict) -> Contact:
    return Contact(
        contact_id=payload["contactId"],
        name=payload["name"],
        phone_numbers=tuple(payload.get("phoneNumbers", ())),
        email=payload.get("email", ""),
    )


class ContactsWrapperFactory:
    """Java side, step 1."""

    def __init__(self, backend: "ContactsWrapperJava") -> None:
        self._backend = backend

    def create_contacts_wrapper_instance(self) -> int:
        return self._backend.create_instance()


class ContactsWrapperJava:
    """Java side, step 2: the ``ContactsWrapper`` class behind the bridge."""

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        self._platform = platform
        self._context = context
        self._backend = WrapperBackend(platform.notification_table)

    def create_instance(self) -> int:
        proxy = AndroidContactsProxyImpl(
            standard_registry().descriptor("Contacts"), self._platform.android
        )
        proxy.set_property("context", self._context)
        return self._backend.add_instance(proxy)

    # -- bridge entry points ---------------------------------------------------

    def list_contacts(self, handle: int) -> str:
        try:
            contacts = self._backend.instance(handle).list_contacts()
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"contacts": [_contact_payload(c) for c in contacts]})

    def find_by_name(self, handle: int, name: str) -> str:
        try:
            contacts = self._backend.instance(handle).find_by_name(name)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"contacts": [_contact_payload(c) for c in contacts]})

    def add_contact(self, handle: int, name: str, phone_number: str) -> str:
        try:
            contact_id = self._backend.instance(handle).add_contact(name, phone_number)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"contactId": contact_id})

    def remove_contact(self, handle: int, contact_id: str) -> str:
        try:
            self._backend.instance(handle).remove_contact(contact_id)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok()


def install_contacts_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> ContactsWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = ContactsWrapperJava(platform, context)
    webview.add_javascript_interface(
        ContactsWrapperFactory(wrapper), FACTORY_JS_NAME
    )
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class ContactsProxyJs(ContactsProxy):
    """JS side: ``com.ibm.proxies.webview.contacts.ContactsProxyJs``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: WebViewPlatform) -> None:
        super().__init__(descriptor, "webview")
        window = platform.active_window
        if window is None:
            raise ProxyError(
                "no page is loaded; construct the JS proxy inside a page script"
            )
        self._init_in_window(window)

    @classmethod
    def in_page(cls, window: JsWindow) -> "ContactsProxyJs":
        instance = cls.__new__(cls)
        ContactsProxy.__init__(
            instance, standard_registry().descriptor("Contacts"), "webview"
        )
        instance._init_in_window(window)
        return instance

    def _init_in_window(self, window: JsWindow) -> None:
        self._window = window
        factory = window.bridge_object(FACTORY_JS_NAME)
        self._wrapper = window.bridge_object(WRAPPER_JS_NAME)
        self._swi = factory.create_contacts_wrapper_instance()

    def list_contacts(self) -> List[Contact]:
        self._record("listContacts")
        payload = decode_or_raise(self._wrapper.list_contacts(self._swi))
        return [_contact_from_payload(c) for c in payload["contacts"]]

    def find_by_name(self, name: str) -> List[Contact]:
        self._validate_arguments("findByName", name=name)
        self._record("findByName", name=name)
        payload = decode_or_raise(self._wrapper.find_by_name(self._swi, name))
        return [_contact_from_payload(c) for c in payload["contacts"]]

    def add_contact(self, name: str, phone_number: str) -> str:
        self._validate_arguments("addContact", name=name, phoneNumber=phone_number)
        self._record("addContact", name=name)
        payload = decode_or_raise(
            self._wrapper.add_contact(self._swi, name, phone_number)
        )
        return payload["contactId"]

    def remove_contact(self, contact_id: str) -> None:
        self._validate_arguments("removeContact", contactId=contact_id)
        self._record("removeContact", contact_id=contact_id)
        decode_or_raise(self._wrapper.remove_contact(self._swi, contact_id))


register_implementation(
    "com.ibm.proxies.webview.contacts.ContactsProxyJs", ContactsProxyJs
)
