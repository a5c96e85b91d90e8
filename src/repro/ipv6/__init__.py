"""IPv6 protocol substrate: addresses, datagrams, UDP, ICMPv6, and RIPng.

This subpackage is a from-scratch implementation of the protocol machinery
the paper's router manipulates. It is pure data-plane code — the TACO
processor model in :mod:`repro.tta` operates on the byte images these
classes produce.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".address": ("Ipv6Address", "Ipv6Prefix", "prefix_mask"),
    ".checksum": ("internet_checksum", "ones_complement_sum",
                  "transport_checksum", "verify_transport_checksum"),
    ".header": ("BASE_HEADER_BYTES", "PROTO_HOP_BY_HOP", "PROTO_ICMPV6",
                "PROTO_NO_NEXT_HEADER", "PROTO_TCP", "PROTO_UDP",
                "ExtensionHeader", "Ipv6Header"),
    ".icmpv6": ("Icmpv6Message", "destination_unreachable", "time_exceeded"),
    ".packet": ("Ipv6Datagram", "ValidationFailure",
                "validate_for_forwarding"),
    ".ripng": ("RIPNG_MULTICAST_GROUP", "RIPNG_PORT", "METRIC_INFINITY",
               "NextHopEntry", "RipngMessage", "RouteTableEntry"),
    ".udp": ("UdpDatagram",),
})
