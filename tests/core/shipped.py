"""Fresh parses of the packaged descriptor documents."""

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.descriptor.xml_io import descriptor_from_xml
from repro.core.proxies.factory import descriptors_dir


def shipped_xml(file_name: str) -> str:
    """The text of one packaged descriptor document, e.g. ``"http.xml"``."""
    return (descriptors_dir() / file_name).read_text()


def shipped_descriptor(file_name: str) -> ProxyDescriptor:
    """A new parse of one packaged document.

    Never the ``standard_registry()`` instance: ``add_binding`` and
    ``add_syntactic`` mutate a descriptor in place.
    """
    return descriptor_from_xml(shipped_xml(file_name))
