"""Packed memory image of a stored route, and validation-free rebuild.

The routing structures model their resident state as 304-bit records
(network 128 + length 8 + next hop 128 + interface 16 + metric 8 +
route tag 16). The table-state fault injector
(:mod:`repro.faults.memory`) flips bits in this image and the
integrity wrapper (:mod:`repro.routing.protected`) computes its
parity/checksum words over it; both must agree on the layout, so it
lives here — a leaf module below every table implementation.

``unpack_entry_raw`` deliberately bypasses all constructor validation
(``object.__new__`` + slot assignment): a flipped prefix-length bit
yields a length of 203 that *exists silently in memory*, exactly like
real SRAM corruption, and fails — if ever — only when a lookup
evaluates ``mask()``/``contains()`` on it, which the hardened lookup
paths convert to a fail-stop ``RoutingTableError``.

``pack_entry`` memoizes each image in the entry's instance dict. A
``RouteEntry`` is frozen and its ``==``, ``hash`` and ``repr`` read only
its fields, so the memo is invisible to them. Nothing here ever changes
an existing entry: ``corrupt_entry`` builds a *new* one through
``unpack_entry_raw``, so a damaged record is always packed afresh.
"""

from __future__ import annotations

from repro.errors import FaultInjectionError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.routing.entry import RouteEntry

#: packed stored-route record layout (bytes, big-endian fields)
ENTRY_BYTES = 38
ENTRY_BITS = ENTRY_BYTES * 8


#: instance-dict key of the image memoized on a packed entry
_IMAGE = "_image"


def pack_entry(entry: RouteEntry) -> bytes:
    """The 304-bit memory image of one stored route (memoized)."""
    image = entry.__dict__.get(_IMAGE)
    if image is None:
        image = entry.__dict__[_IMAGE] = _pack_fields(entry)
    return image


def _pack_fields(entry: RouteEntry) -> bytes:
    """Lay out *entry*'s fields as a record, without the memo."""
    return (entry.prefix.network.value.to_bytes(16, "big")
            + bytes([entry.prefix.length & 0xFF])
            + entry.next_hop.value.to_bytes(16, "big")
            + (entry.interface & 0xFFFF).to_bytes(2, "big")
            + bytes([entry.metric & 0xFF])
            + (entry.route_tag & 0xFFFF).to_bytes(2, "big"))


def raw_address(value: int) -> Ipv6Address:
    """Construct an address without range validation (corruption path)."""
    address = object.__new__(Ipv6Address)
    address._value = value
    return address


def raw_prefix(network_value: int, length: int) -> Ipv6Prefix:
    """Construct a prefix without host-bit/length validation."""
    prefix = object.__new__(Ipv6Prefix)
    prefix._network = raw_address(network_value)
    prefix._length = length
    return prefix


def unpack_entry_raw(data: bytes) -> RouteEntry:
    """Rebuild a (possibly corrupted) route record without validation."""
    if len(data) != ENTRY_BYTES:
        raise FaultInjectionError(
            f"entry record must be {ENTRY_BYTES} bytes, got {len(data)}")
    entry = object.__new__(RouteEntry)
    object.__setattr__(entry, "prefix", raw_prefix(
        int.from_bytes(data[0:16], "big"), data[16]))
    object.__setattr__(entry, "next_hop",
                       raw_address(int.from_bytes(data[17:33], "big")))
    object.__setattr__(entry, "interface",
                       int.from_bytes(data[33:35], "big"))
    object.__setattr__(entry, "metric", data[35])
    object.__setattr__(entry, "route_tag",
                       int.from_bytes(data[36:38], "big"))
    return entry


def corrupt_entry(entry: RouteEntry, bit: int) -> RouteEntry:
    """*entry* with one bit of its packed memory image flipped."""
    if not 0 <= bit < ENTRY_BITS:
        raise FaultInjectionError(
            f"entry bit must be in [0, {ENTRY_BITS}), got {bit}")
    image = bytearray(pack_entry(entry))
    image[bit // 8] ^= 1 << (bit % 8)
    return unpack_entry_raw(bytes(image))


def flip_bit(data: bytes, bit: int) -> bytes:
    """*data* with *bit* (record-relative, LSB-first per byte) flipped."""
    if not 0 <= bit < len(data) * 8:
        raise FaultInjectionError(
            f"bit {bit} out of range for a {len(data)}-byte record")
    image = bytearray(data)
    image[bit // 8] ^= 1 << (bit % 8)
    return bytes(image)
