"""The forwarding conformance suite, and the suite's own negative test.

Two halves: (1) the real implementation must pass the full matrix for
every routing-table kind, with the contract details (hop-limit
decrement, ICMP addressing, LPM tie-break, MAC rewrite, checksum
preservation) asserted case by case; (2) every deliberately broken
router/program must FAIL the suite, with the diagnosis naming the
broken contract — a conformance suite that cannot fail proves nothing.
"""

import pytest

from repro.conformance import (
    EXPECT_FORWARD,
    MUTANTS,
    PROGRAM_MUTANTS,
    MacAddress,
    build_fixture,
    build_matrix,
    build_packet,
    run_case,
    run_conformance,
    run_datapath_check,
)
from repro.dse.config import ArchitectureConfiguration
from repro.errors import ConformanceError
from repro.ipv6.address import Ipv6Address

TABLE_KINDS = ("sequential", "balanced-tree", "cam",
               "multibit-trie", "bloom")


class TestMatrixShape:
    def test_full_cross_product_plus_link_cases(self):
        cases = build_matrix()
        # 3 kinds x 4 destination classes x 3 hop limits + 2 MAC cases
        assert len(cases) == 38
        ids = [case.case_id for case in cases]
        assert len(set(ids)) == len(ids)
        assert "udpv6/lpm/hl=64" in ids
        assert "mac/not-my-station" in ids

    def test_hop_limit_expiry_outranks_routing(self):
        for case in build_matrix():
            if case.hop_limit <= 1:
                assert case.expectation == "time-exceeded"


class TestRealImplementationPasses:
    @pytest.mark.parametrize("table_kind", TABLE_KINDS)
    def test_full_suite_passes(self, table_kind):
        report = run_conformance(table_kind=table_kind)
        assert report.passed, report.summary()
        assert report.counts["pass"] == 39  # 38 matrix + 1 datapath
        assert report.counts["skip"] == 0

    def test_mac_disabled_skips_link_cases(self):
        report = run_conformance(table_kind="sequential", mac=False,
                                 datapath=False)
        assert report.passed
        assert report.counts["skip"] == 2

    def test_report_round_trips_to_dict(self):
        report = run_conformance(table_kind="cam", datapath=False)
        document = report.to_dict()
        assert document["passed"] is True
        assert document["table_kind"] == "cam"
        assert len(document["cases"]) == len(report.results)
        assert "conformance [cam] PASS" in report.render()


class TestLpmTieBreak:
    def test_nested_prefixes_pick_the_longer_match(self):
        """2001:db8:f0f0::99 matches both the /36 and the /48; the case
        matrix expects interface 2 (the /48), so a first-match table
        would fail — assert the fixture really is ambiguous."""
        router = build_fixture("sequential")
        result = router.table.lookup(
            Ipv6Address.parse("2001:db8:f0f0::99"))
        assert result.prefix_length == 48
        assert result.interface == 2
        broad = router.table.lookup(
            Ipv6Address.parse("2001:db8:f111::1"))
        assert broad.prefix_length == 36
        assert broad.interface == 3


class TestMutantsMustFail:
    """Mutation adequacy: every planted bug is detected, and the failing
    cases name the contract the bug breaks."""

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_functional_mutants_fail(self, mutant):
        report = run_conformance(table_kind="sequential", mutant=mutant,
                                 datapath=False)
        assert not report.passed, f"{mutant} went undetected"
        assert report.failures(), mutant

    def test_no_decrement_diagnosis_names_the_hop_limit(self):
        report = run_conformance(table_kind="sequential",
                                 mutant="no-decrement", datapath=False)
        failing = {f.case_id for f in report.failures()}
        # exactly the 9 forwarded cases break; expiry/ICMP cases still pass
        assert failing == {f"{k}/{d}/hl=64"
                          for k in ("tcpv6", "udpv6", "icmpv6")
                          for d in ("on-link", "lpm", "default")}
        assert all("hop limit" in f.detail for f in report.failures())

    def test_forward_expired_breaks_only_expiry_cases(self):
        report = run_conformance(table_kind="sequential",
                                 mutant="forward-expired", datapath=False)
        assert report.failures()
        for failure in report.failures():
            assert failure.case_id.endswith(("hl=1", "hl=0"))

    def test_wrong_interface_diagnosis_names_the_egress(self):
        report = run_conformance(table_kind="sequential",
                                 mutant="wrong-interface", datapath=False)
        assert any("interface" in f.detail for f in report.failures())

    def test_program_mutant_fails_the_datapath_cross_check(self):
        result = run_datapath_check("sequential",
                                    mutant="program-no-decrement")
        assert result.status == "fail"
        assert "diverged from golden" in result.detail

    def test_program_mutant_through_the_full_suite(self):
        report = run_conformance(table_kind="sequential",
                                 mutant="program-no-decrement")
        # the matrix (golden router) still passes; only the datapath
        # cross-check fails, isolating the bug to the TTA program
        assert not report.passed
        assert {f.case_id for f in report.failures()} == \
            {"datapath/sequential"}

    def test_unknown_mutant_is_an_error(self):
        with pytest.raises(ConformanceError):
            run_conformance(mutant="not-a-mutant")


class TestDatapathHopLimitAudit:
    """Satellite audit: the TTA program must drop hl<=1, never wrap."""

    @pytest.mark.parametrize("table_kind", TABLE_KINDS)
    def test_expired_packets_never_egress_the_datapath(self, table_kind):
        from repro.conformance.cases import DESTINATIONS, fixture_routes
        from repro.programs.runner import run_forwarding

        destination = DESTINATIONS["lpm"][0]
        packets = [(0, build_packet("udpv6", destination, hop_limit))
                   for hop_limit in (0, 1)]
        result = run_forwarding(
            ArchitectureConfiguration(table_kind=table_kind),
            fixture_routes(), packets)
        assert result.correct
        assert result.packets_forwarded == 0
        for card in result.machine.line_cards:
            for raw in card.transmitted:
                assert raw[7] not in (255, 0xFF), "hop limit wrapped"


class TestCaseIsolation:
    def test_each_case_gets_a_fresh_router(self):
        """Running the same case twice must not accumulate state."""
        case = next(c for c in build_matrix()
                    if c.expectation == EXPECT_FORWARD)
        first = run_case(case, "sequential")
        second = run_case(case, "sequential")
        assert first.status == second.status == "pass"


class TestMacLayer:
    def test_multicast_mac_mapping(self):
        group = Ipv6Address.parse("ff02::9")
        mac = MacAddress.for_ipv6_multicast(group)
        assert str(mac) == "33:33:00:00:00:09"
        assert mac.is_multicast()

    def test_bad_mac_strings_are_rejected(self):
        with pytest.raises(ConformanceError):
            MacAddress.parse("02:00:00:00:00")
        with pytest.raises(ConformanceError):
            MacAddress.parse("02:00:00:00:00:zz")
