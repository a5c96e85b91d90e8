"""The IPv6 router: line cards, golden forwarding model, RIPng, topologies."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".linecard": ("LineCard",),
    ".network": ("ConvergenceReport", "Link", "Network", "line_topology",
                 "ring_topology", "seed_fib_routes"),
    ".ripng_engine": ("RipngEngine", "RipngRoute"),
    ".router": ("Ipv6Router", "RouterStatistics"),
})
