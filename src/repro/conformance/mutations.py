"""Deliberately broken routers and programs — the suite's own test.

A conformance suite that has never failed proves nothing. Each mutation
here plants one classic forwarding bug; running the matrix against a
mutant must produce case-level failures naming exactly the contract the
bug breaks. Functional mutants patch a fixture :class:`Ipv6Router`
instance in place; the program mutant regenerates the TACO forwarding
program with its hop-limit decrement removed, proving the datapath
cross-check (golden model vs cycle-accurate simulation) catches a broken
*program*, not just a broken Python model.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import ConformanceError
from repro.programs.forwarding import ForwardingProgramFactory
from repro.programs.machine import RouterMachine
from repro.router.router import Ipv6Router
from repro.tta.memory import ProgramMemory
from repro.tta.ports import PortRef

P = PortRef


def _no_decrement(router: Ipv6Router) -> None:
    """Forward without decrementing the hop limit (re-increments on
    egress, which is byte-for-byte the same observable bug)."""
    for card in router.line_cards:
        original = card.transmit

        def patched(raw: bytes, _original=original) -> None:
            if len(raw) > 7:
                raw = raw[:7] + bytes([(raw[7] + 1) & 0xFF]) + raw[8:]
            _original(raw)

        card.transmit = patched  # type: ignore[method-assign]


def _forward_expired(router: Ipv6Router) -> None:
    """Forward packets whose hop limit already ran out (classic TTL bug:
    the expiry check is skipped, so hl<=1 packets loop forever)."""
    original = router.receive

    def patched(interface: int, raw: bytes, now: float = 0.0,
                _original=original) -> None:
        if len(raw) > 7 and raw[7] <= 1:
            raw = raw[:7] + b"\x02" + raw[8:]
        _original(interface, raw, now)

    router.receive = patched  # type: ignore[method-assign]


def _no_icmp(router: Ipv6Router) -> None:
    """Drop silently: no Time Exceeded, no Destination Unreachable."""
    router._icmp_error = (  # type: ignore[method-assign]
        lambda interface, raw, kind: None)


def _wrong_interface(router: Ipv6Router) -> None:
    """Egress lands one interface over (an off-by-one port map)."""
    cards = router.line_cards
    originals = [card.transmit for card in cards]
    for index, card in enumerate(cards):
        rotated = originals[(index + 1) % len(cards)]
        card.transmit = rotated  # type: ignore[method-assign]


#: name -> in-place patch of a fixture router
MUTANTS: Dict[str, Callable[[Ipv6Router], None]] = {
    "no-decrement": _no_decrement,
    "forward-expired": _forward_expired,
    "no-icmp": _no_icmp,
    "wrong-interface": _wrong_interface,
}


def apply_mutant(router: Ipv6Router, name: str) -> Ipv6Router:
    try:
        MUTANTS[name](router)
    except KeyError:
        raise ConformanceError(
            f"unknown mutant {name!r}; expected one of "
            f"{', '.join(sorted(MUTANTS))}") from None
    return router


class _NoDecrementProgramFactory(ForwardingProgramFactory):
    """The tuned forwarding program, minus the hop-limit store-back."""

    def _emit_found(self, b) -> None:
        b.block("found")
        # hand over to the oppu without writing back word1 - 1
        b.move(P("gpr", "r0"), P("oppu0", "o_ptr"))
        b.move(P("gpr", "r6"), P("oppu0", "t_send"))
        b.jump("wait")


def no_decrement_program(machine: RouterMachine) -> ProgramMemory:
    """``program_factory`` for :func:`repro.programs.runner.run_forwarding`
    that plants the no-decrement bug at the TTA level."""
    return _NoDecrementProgramFactory(machine).assemble()


#: name -> program factory for the datapath cross-check
PROGRAM_MUTANTS: Dict[str, Callable[[RouterMachine], ProgramMemory]] = {
    "program-no-decrement": no_decrement_program,
}
