"""Exact arithmetic in finite abelian groups given as products of cyclic groups.

A group is specified by the moduli of its cyclic factors, e.g.
``Group((2, 4))`` for Z2 x Z4.  Elements are tuples of residues, one per
factor; the empty product is the trivial group whose only element is ``()``.

Every element also has a dense integer code (mixed-radix, factor 0 least
significant), used by the table machinery to keep value storage flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import ArgumentError, DomainError, ParseError, ResourceError, ShapeError

Element = tuple[int, ...]

# Dense Cayley tables are only materialized for groups up to this order.
_CODE_TABLE_LIMIT = 1 << 12


def parse_decimal(text: str) -> int | None:
    """Value of a nonempty string of ASCII digits; None for anything else,
    such as a sign, an underscore, a space or a non-ASCII digit ('²', '١')."""
    if text.isascii() and text.isdigit():
        return int(text)
    return None


@dataclass(frozen=True)
class Group:
    """Direct product of cyclic groups Z_{m1} x ... x Z_{mk}, written additively."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        mods = tuple(int(m) for m in self.moduli)
        object.__setattr__(self, "moduli", mods)
        for m in mods:
            if m < 2:
                raise ArgumentError(f"cyclic factor modulus must be >= 2, got {m}")

    # ------------------------------------------------------------------
    # text form: "Z2", "Z2xZ4", case-insensitive; "Z1" denotes the trivial group
    # ------------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Group":
        compact = "".join(text.split()).lower()
        if not compact:
            raise ParseError("empty group spec")
        moduli = []
        for part in compact.split("x"):
            m = parse_decimal(part[1:]) if part.startswith("z") else None
            if m is None:
                raise ParseError(f"bad group factor {part!r} in {text!r}")
            if m == 0:
                raise ParseError("factor Z0 is not a finite cyclic group")
            if m > 1:  # Z1 factors are trivial and normalized away
                moduli.append(m)
        return cls(tuple(moduli))

    def to_text(self) -> str:
        if not self.moduli:
            return "Z1"
        return "x".join(f"Z{m}" for m in self.moduli)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def exponent(self) -> int:
        """Least common multiple of the element orders (1 for the trivial group)."""
        return math.lcm(*self.moduli) if self.moduli else 1

    def exponent_pow2(self) -> int | None:
        """Return e when the exponent equals 2**e, else None."""
        e = self.exponent
        return e.bit_length() - 1 if e & (e - 1) == 0 else None

    def is_boolean(self) -> bool:
        """True when every element is its own inverse (exponent divides 2)."""
        return self.exponent <= 2

    @property
    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    # ------------------------------------------------------------------
    # element arithmetic
    # ------------------------------------------------------------------

    def validate(self, x: Sequence[int]) -> Element:
        if len(x) != len(self.moduli):
            raise ShapeError(
                f"element has {len(x)} residues, group {self.to_text()} has "
                f"{len(self.moduli)} factors"
            )
        for r, m in zip(x, self.moduli):
            if not 0 <= r < m:
                raise DomainError(f"residue {r} out of range for modulus {m}")
        return tuple(x)

    def add(self, x: Sequence[int], y: Sequence[int]) -> Element:
        x = self.validate(x)
        y = self.validate(y)
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x: Sequence[int]) -> Element:
        x = self.validate(x)
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def sub(self, x: Sequence[int], y: Sequence[int]) -> Element:
        x = self.validate(x)
        y = self.validate(y)
        return tuple((a - b) % m for a, b, m in zip(x, y, self.moduli))

    def scalar_mul(self, k: int, x: Sequence[int]) -> Element:
        """k-fold sum of x; k may be negative (scalar_mul(-1, x) == neg(x))."""
        x = self.validate(x)
        return tuple((k * a) % m for a, m in zip(x, self.moduli))

    def order_of(self, x: Sequence[int]) -> int:
        x = self.validate(x)
        return math.lcm(*(m // math.gcd(r, m) for r, m in zip(x, self.moduli))) if x else 1

    def elements(self) -> Iterator[Element]:
        """All elements in ascending code order."""
        for code in range(self.order):
            yield self.decode(code)

    # ------------------------------------------------------------------
    # dense codes
    # ------------------------------------------------------------------

    def encode(self, x: Sequence[int]) -> int:
        x = self.validate(x)
        code = 0
        for r, m in zip(reversed(x), reversed(self.moduli)):
            code = code * m + r
        return code

    def decode(self, code: int) -> Element:
        if not 0 <= code < self.order:
            raise DomainError(f"element code {code} out of range for {self.to_text()}")
        out = []
        for m in self.moduli:
            out.append(code % m)
            code //= m
        return tuple(out)

    @cached_property
    def code_add_table(self) -> list[list[int]]:
        """Full addition table on codes (desk-scale groups only)."""
        if self.order > _CODE_TABLE_LIMIT:
            raise ResourceError(
                f"group order {self.order} too large for dense Cayley tables"
            )
        elems = [self.decode(c) for c in range(self.order)]
        return [
            [self.encode(tuple((a + b) % m for a, b, m in zip(x, y, self.moduli)))
             for y in elems]
            for x in elems
        ]

    @cached_property
    def code_neg_table(self) -> list[int]:
        if self.order > _CODE_TABLE_LIMIT:
            raise ResourceError(
                f"group order {self.order} too large for dense Cayley tables"
            )
        return [self.encode(self.neg(self.decode(c))) for c in range(self.order)]

    @cached_property
    def code_sub_table(self) -> list[list[int]]:
        add = self.code_add_table
        neg = self.code_neg_table
        return [[add[a][neg[b]] for b in range(self.order)] for a in range(self.order)]

    # ------------------------------------------------------------------
    # element text form: residues joined by commas; "0" for the trivial group
    # ------------------------------------------------------------------

    def format_element(self, x: Sequence[int]) -> str:
        x = self.validate(x)
        if not x:
            return "0"
        return ",".join(str(r) for r in x)

    def parse_element(self, text: str) -> Element:
        text = text.strip()
        if not self.moduli:
            if text != "0":
                raise ParseError(f"bad trivial-group element {text!r} (expected '0')")
            return ()
        parts = text.split(",")
        if len(parts) != len(self.moduli):
            raise ParseError(
                f"element {text!r} has {len(parts)} residues, expected {len(self.moduli)}"
            )
        residues = []
        for p, m in zip(parts, self.moduli):
            r = parse_decimal(p)
            # only the canonical text str(r) names residue r: no leading zero
            if r is None or (p[0] == "0" and p != "0"):
                raise ParseError(f"bad element text {text!r}")
            if r >= m:
                raise ParseError(f"residue {r} out of range for modulus {m} in {text!r}")
            residues.append(r)
        return tuple(residues)
