"""Table-driven forwarding conformance suite (PTF-style).

The matrix crosses packet kind (tcpv6/udpv6/icmpv6), destination class
(on-link / LPM-matched / default / no-route) and hop limit (64/1/0),
asserts the full forwarding contract per case, and cross-checks the
cycle-accurate TTA datapath against the golden model. Run it via
:func:`run_conformance`, ``repro.api.conformance()`` or the
``conformance`` CLI subcommand.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cases": ("ConformanceCase", "DEST_CLASSES", "EXPECT_DEST_UNREACHABLE",
               "EXPECT_FORWARD", "EXPECT_LINK_DROP", "EXPECT_TIME_EXCEEDED",
               "HOP_LIMITS", "PACKET_KINDS", "build_fixture",
               "build_matrix", "build_packet", "expected_verdict",
               "fixture_routes", "neighbor_macs"),
    ".harness": ("CaseResult", "ConformanceReport", "STATUS_FAIL",
                 "STATUS_PASS", "STATUS_SKIP", "datapath_packets",
                 "run_case", "run_conformance", "run_datapath_check"),
    ".mac": ("ETHERTYPE_IPV6", "EthernetFrame", "MacAddress", "MacShim",
             "default_port_macs"),
    ".mutations": ("MUTANTS", "PROGRAM_MUTANTS", "apply_mutant",
                   "no_decrement_program"),
})
