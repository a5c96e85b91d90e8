"""Workload generators: routing tables and synthetic IPv6 traffic."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".packets": ("PACKET_SIZE_MIX", "build_datagram", "forwarding_workload",
                 "mean_packet_bytes", "worst_case_workload"),
    ".fib": ("FIB_LENGTH_WEIGHTS", "FibProfile", "synthesize_fib",
             "zipf_addresses"),
    ".tables": ("PREFIX_LENGTH_MIX", "addresses_for_routes",
                "address_inside", "generate_routes", "random_prefix"),
})
