"""Android binding of the Contacts proxy (ContentResolver underneath)."""

from __future__ import annotations

from typing import List

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.contacts.api import ContactsProxy
from repro.core.proxies.factory import register_implementation
from repro.core.proxy.datatypes import Contact
from repro.errors import ProxyError
from repro.platforms.android.contacts import (
    COLUMN_DISPLAY_NAME,
    COLUMN_EMAIL,
    COLUMN_ID,
    COLUMN_NUMBER,
    CONTACTS_URI,
    ContentValues,
)
from repro.platforms.android.context import Context
from repro.platforms.android.platform import AndroidPlatform


class AndroidContactsProxyImpl(ContactsProxy):
    """``com.ibm.proxies.android.contacts.ContactsProxyImpl``."""

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
    def _drain(cursor) -> List[Contact]:
        contacts = []
        while cursor.move_to_next():
            number = cursor.get_string(COLUMN_NUMBER)
            contacts.append(
                Contact(
                    contact_id=cursor.get_string(COLUMN_ID),
                    name=cursor.get_string(COLUMN_DISPLAY_NAME),
                    phone_numbers=(number,) if number else (),
                    email=cursor.get_string(COLUMN_EMAIL) or "",
                )
            )
        cursor.close()
        return contacts

    def list_contacts(self) -> List[Contact]:
        self._record("listContacts")
        with self._guard("listContacts"):
            cursor = self._resolver("listContacts").query(CONTACTS_URI)
            return self._drain(cursor)

    def find_by_name(self, name: str) -> List[Contact]:
        self._validate_arguments("findByName", name=name)
        self._record("findByName", name=name)
        with self._guard("findByName"):
            cursor = self._resolver("findByName").query(CONTACTS_URI, selection=name)
            return self._drain(cursor)

    def add_contact(self, name: str, phone_number: str) -> str:
        self._validate_arguments("addContact", name=name, phoneNumber=phone_number)
        self._record("addContact", name=name)
        with self._guard("addContact"):
            values = ContentValues()
            values.put(COLUMN_DISPLAY_NAME, name)
            values.put(COLUMN_NUMBER, phone_number)
            row_uri = self._resolver("addContact").insert(CONTACTS_URI, values)
            return row_uri.rsplit("/", 1)[-1]

    def remove_contact(self, contact_id: str) -> None:
        self._validate_arguments("removeContact", contactId=contact_id)
        self._record("removeContact", contact_id=contact_id)
        with self._guard("removeContact"):
            self._resolver("removeContact").delete(f"{CONTACTS_URI}/{contact_id}")


register_implementation(
    "com.ibm.proxies.android.contacts.ContactsProxyImpl", AndroidContactsProxyImpl
)
