"""IPv6 addresses and prefixes (RFC 4291 textual forms, RFC 2460 semantics).

Implemented from scratch rather than via :mod:`ipaddress` because the TACO
functional units operate on the raw 128-bit value split into 32-bit words;
this module is the single source of truth for that word-level view.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.errors import Ipv6Error

ADDRESS_BITS = 128
WORD_BITS = 32
WORDS_PER_ADDRESS = ADDRESS_BITS // WORD_BITS
_MAX = (1 << ADDRESS_BITS) - 1
#: ``prefix_mask(length)`` for every valid length
_MASKS: Tuple[int, ...] = tuple(_MAX ^ (_MAX >> length)
                                for length in range(ADDRESS_BITS + 1))


class Ipv6Address:
    """An immutable 128-bit IPv6 address.

    Construct from an integer, 16 bytes, or RFC 4291 text (including the
    ``::`` zero-compression form).
    """

    __slots__ = ("_value",)

    def __init__(self, value: int):
        if not isinstance(value, int):
            raise Ipv6Error(f"address value must be int, got {type(value).__name__}")
        if not 0 <= value <= _MAX:
            raise Ipv6Error(f"address value out of 128-bit range: {value:#x}")
        self._value = value

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv6Address":
        if len(data) != 16:
            raise Ipv6Error(f"IPv6 address needs 16 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def from_groups(cls, groups: Iterable[int]) -> "Ipv6Address":
        """Build from eight 16-bit groups (the colon-separated fields)."""
        gs = list(groups)
        if len(gs) != 8:
            raise Ipv6Error(f"IPv6 address needs 8 groups, got {len(gs)}")
        value = 0
        for g in gs:
            if not 0 <= g <= 0xFFFF:
                raise Ipv6Error(f"group out of range: {g:#x}")
            value = (value << 16) | g
        return cls(value)

    @classmethod
    def from_words(cls, words: Iterable[int]) -> "Ipv6Address":
        """Build from four 32-bit words, most significant first.

        This is the representation the 32-bit TACO datapath uses.
        """
        ws = list(words)
        if len(ws) != WORDS_PER_ADDRESS:
            raise Ipv6Error(f"IPv6 address needs {WORDS_PER_ADDRESS} words, got {len(ws)}")
        value = 0
        for w in ws:
            if not 0 <= w <= 0xFFFFFFFF:
                raise Ipv6Error(f"word out of range: {w:#x}")
            value = (value << 32) | w
        return cls(value)

    @classmethod
    def parse(cls, text: str) -> "Ipv6Address":
        """Parse RFC 4291 text, e.g. ``2001:db8::1`` or ``::ffff:1.2.3.4``."""
        if not isinstance(text, str):
            raise Ipv6Error(f"cannot parse {type(text).__name__} as IPv6 address")
        text = text.strip()
        if text.count("::") > 1:
            raise Ipv6Error(f"more than one '::' in {text!r}")
        if ":::" in text:
            raise Ipv6Error(f"':::' is invalid in {text!r}")

        # RFC 4291 §2.2(3): a trailing dotted quad stands for two groups
        if "." in text:
            head, _, quad = text.rpartition(":")
            if not head:
                raise Ipv6Error(f"dotted quad needs a ':' prefix: {text!r}")
            octets = quad.split(".")
            if len(octets) != 4:
                raise Ipv6Error(f"bad dotted quad in {text!r}")
            try:
                values = [int(o) for o in octets]
            except ValueError:
                raise Ipv6Error(f"bad dotted quad in {text!r}") from None
            if any(not 0 <= v <= 255 for v in values):
                raise Ipv6Error(f"dotted quad octet out of range in {text!r}")
            groups_tail = (f"{(values[0] << 8) | values[1]:x}:"
                           f"{(values[2] << 8) | values[3]:x}")
            text = head + ":" + groups_tail

        if "::" in text:
            head_text, tail_text = text.split("::")
            head = cls._parse_groups(head_text)
            tail = cls._parse_groups(tail_text)
            missing = 8 - len(head) - len(tail)
            if missing < 1:
                raise Ipv6Error(f"'::' must replace at least one group in {text!r}")
            groups = head + [0] * missing + tail
        else:
            groups = cls._parse_groups(text)
            if len(groups) != 8:
                raise Ipv6Error(f"expected 8 groups in {text!r}, got {len(groups)}")
        return cls.from_groups(groups)

    @staticmethod
    def _parse_groups(text: str) -> List[int]:
        if not text:
            return []
        groups = []
        for part in text.split(":"):
            if not part:
                raise Ipv6Error(f"empty group in {text!r}")
            if len(part) > 4:
                raise Ipv6Error(f"group too long: {part!r}")
            try:
                groups.append(int(part, 16))
            except ValueError:
                raise Ipv6Error(f"invalid hex group: {part!r}") from None
        return groups

    # -- views -------------------------------------------------------------

    @property
    def value(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(16, "big")

    def groups(self) -> Tuple[int, ...]:
        """The eight 16-bit groups, most significant first."""
        return tuple((self._value >> (16 * (7 - i))) & 0xFFFF for i in range(8))

    def words(self) -> Tuple[int, int, int, int]:
        """The four 32-bit words, most significant first (TACO view)."""
        return tuple(  # type: ignore[return-value]
            (self._value >> (32 * (3 - i))) & 0xFFFFFFFF for i in range(4)
        )

    # -- classification (RFC 4291) ----------------------------------------

    def is_unspecified(self) -> bool:
        return self._value == 0

    def is_loopback(self) -> bool:
        return self._value == 1

    def is_multicast(self) -> bool:
        return (self._value >> 120) == 0xFF

    def is_link_local(self) -> bool:
        return (self._value >> 112) & 0xFFC0 == 0xFE80

    def is_ipv4_mapped(self) -> bool:
        """::ffff:0:0/96, the RFC 4291 §2.5.5.2 embedding."""
        return (self._value >> 32) == 0xFFFF

    # -- formatting --------------------------------------------------------

    def compressed(self) -> str:
        """RFC 5952-style text with the longest zero run compressed."""
        if self.is_ipv4_mapped():
            low = self._value & 0xFFFFFFFF
            return ("::ffff:" + ".".join(
                str((low >> shift) & 0xFF) for shift in (24, 16, 8, 0)))
        groups = self.groups()
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, g in enumerate(groups):
            if g == 0:
                if run_start < 0:
                    run_start, run_len = i, 0
                run_len += 1
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
            else:
                run_start, run_len = -1, 0
        if best_len < 2:
            return ":".join(f"{g:x}" for g in groups)
        head = ":".join(f"{g:x}" for g in groups[:best_start])
        tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
        return f"{head}::{tail}"

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ipv6Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "Ipv6Address") -> bool:
        if isinstance(other, Ipv6Address):
            return self._value < other._value
        return NotImplemented

    def __le__(self, other: "Ipv6Address") -> bool:
        if isinstance(other, Ipv6Address):
            return self._value <= other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return f"Ipv6Address('{self.compressed()}')"

    def __str__(self) -> str:
        return self.compressed()


class Ipv6Prefix:
    """An IPv6 prefix ``address/length`` with host bits required to be zero."""

    __slots__ = ("_network", "_length")

    def __init__(self, network: Ipv6Address, length: int):
        if not 0 <= length <= ADDRESS_BITS:
            raise Ipv6Error(f"prefix length out of range: {length}")
        mask = prefix_mask(length)
        if network.value & ~mask & _MAX:
            raise Ipv6Error(
                f"host bits set in prefix {network}/{length}; "
                f"use Ipv6Prefix.of() to truncate"
            )
        self._network = network
        self._length = length

    @classmethod
    def of(cls, address: Ipv6Address, length: int) -> "Ipv6Prefix":
        """Build a prefix from any address by zeroing the host bits."""
        if not 0 <= length <= ADDRESS_BITS:
            raise Ipv6Error(f"prefix length out of range: {length}")
        return cls(Ipv6Address(address.value & prefix_mask(length)), length)

    @classmethod
    def parse(cls, text: str) -> "Ipv6Prefix":
        """Parse ``2001:db8::/32`` style text."""
        if "/" not in text:
            raise Ipv6Error(f"prefix needs '/length': {text!r}")
        addr_text, _, len_text = text.partition("/")
        try:
            length = int(len_text)
        except ValueError:
            raise Ipv6Error(f"invalid prefix length: {len_text!r}") from None
        return cls(Ipv6Address.parse(addr_text), length)

    @property
    def network(self) -> Ipv6Address:
        return self._network

    @property
    def length(self) -> int:
        return self._length

    def mask(self) -> int:
        return prefix_mask(self._length)

    def mask_words(self) -> Tuple[int, int, int, int]:
        """The 128-bit mask as four 32-bit words (TACO view)."""
        m = self.mask()
        return tuple((m >> (32 * (3 - i))) & 0xFFFFFFFF for i in range(4))  # type: ignore

    def contains(self, address: Ipv6Address) -> bool:
        mask = prefix_mask(self._length)
        return (address._value & mask) == self._network._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ipv6Prefix):
            return (self._network, self._length) == (other._network, other._length)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._network._value, self._length))

    def __repr__(self) -> str:
        return f"Ipv6Prefix('{self}')"

    def __str__(self) -> str:
        return f"{self._network}/{self._length}"


def prefix_mask(length: int) -> int:
    """The 128-bit network mask for a prefix of the given length."""
    if not 0 <= length <= ADDRESS_BITS:
        raise Ipv6Error(f"prefix length out of range: {length}")
    return _MASKS[length]
