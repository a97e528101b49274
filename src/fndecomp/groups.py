"""Exact arithmetic in finite abelian groups given as products of cyclic groups.

A group is specified by the moduli of its cyclic factors, e.g.
``Group((2, 4))`` for Z2 x Z4.  Elements are tuples of residues, one per
factor; the empty product is the trivial group whose only element is ``()``.

Every element also has a dense integer code (mixed-radix, factor 0 least
significant), used by the table machinery to keep value storage flat.  Whole
tables of codes are added and subtracted in ``packing``.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import index
from typing import Iterator, Sequence

from .errors import ArgumentError, DomainError, ParseError, ShapeError, excerpt, excerpt_int
from .records import Record

Element = tuple[int, ...]

# Python's default limit on digits in an int() conversion
# (sys.int_info.default_max_str_digits); int() raises ValueError above it.
_MAX_DIGITS = 4300


def parse_decimal(text: str) -> int | None:
    """Value of a nonempty string of at most 4 300 ASCII digits; None for
    anything else, such as a sign, an underscore, a space, a non-ASCII digit
    ('²', '١') or a longer run of digits."""
    if len(text) <= _MAX_DIGITS and text.isascii() and text.isdigit():
        return int(text)
    return None


def as_int(what: str, value) -> int:
    """value as a plain int, read through operator.index so that bool and
    numpy ints pass; ArgumentError naming what for 2.5, 2.0, "3" and the like."""
    try:
        return index(value)
    except TypeError:
        raise ArgumentError(f"{what} must be an integer, got {excerpt(repr(value))}") from None


def as_text(what: str, value) -> str:
    """value itself when it is a str; ArgumentError naming what for bytes or
    any other type."""
    if not isinstance(value, str):
        raise ArgumentError(f"{what} must be a str, got {excerpt(type(value).__name__)}")
    return value


def at_least(what: str, value, least: int) -> int:
    """as_int(what, value), and ArgumentError for an integer below least."""
    value = as_int(what, value)
    if value < least:
        raise ArgumentError(f"{what} must be >= {least}, got {excerpt_int(value)}")
    return value


def below(what: str, value, stop: int, where: str, error=DomainError) -> int:
    """as_int(what, value), and error naming what and where for an integer
    outside range(stop)."""
    value = as_int(what, value)
    if not 0 <= value < stop:
        raise error(f"{what} {excerpt_int(value)} out of range for {where}")
    return value


class Group(Record):
    """Direct product of cyclic groups Z_{m1} x ... x Z_{mk}, written additively."""

    _fields = ("moduli",)

    def __init__(self, moduli: tuple[int, ...]):
        mods = tuple(at_least("cyclic factor modulus", m, 2) for m in moduli)
        self.__dict__.update(moduli=mods)

    # ------------------------------------------------------------------
    # text form: "Z2", "Z2xZ4", case-insensitive; "Z1" denotes the trivial group
    # ------------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Group":
        compact = "".join(as_text("group text", text).split()).lower()
        if not compact:
            raise ParseError("empty group spec")
        moduli = []
        for part in compact.split("x"):
            m = parse_decimal(part[1:]) if part.startswith("z") else None
            if m is None:
                raise ParseError(f"bad group factor {excerpt(part)!r} in {excerpt(text)!r}")
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
        """x as a tuple of plain int residues, read through operator.index so
        that bool and numpy ints pass and 1.0 does not."""
        if len(x) != len(self.moduli):
            raise ShapeError(
                f"element has {len(x)} residues, group {excerpt(self.to_text())} has "
                f"{len(self.moduli)} factors"
            )
        # one map, no list per call: appending residues to a list raised the
        # peak of load_table on a table of distinct tokens by about a tenth
        try:
            residues = tuple(map(index, x))
        except TypeError:
            raise DomainError(
                f"element {excerpt(repr(x))} has a residue that is not an integer") from None
        for r, m in zip(residues, self.moduli):
            if not 0 <= r < m:
                raise DomainError(
                    f"residue {excerpt_int(r)} out of range for modulus {excerpt_int(m)}"
                )
        return residues

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
        k, x = as_int("k", k), self.validate(x)
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
        code = as_int("element code", code)
        if not 0 <= code < self.order:
            raise DomainError(
                f"element code {excerpt_int(code)} out of range for {excerpt(self.to_text())}"
            )
        out = []
        for m in self.moduli:
            out.append(code % m)
            code //= m
        return tuple(out)

    # ------------------------------------------------------------------
    # element text form: residues joined by commas; "0" for the trivial group
    # ------------------------------------------------------------------

    def format_element(self, x: Sequence[int]) -> str:
        x = self.validate(x)
        if not x:
            return "0"
        return ",".join(str(r) for r in x)

    def parse_element(self, text: str) -> Element:
        try:
            # str.strip refuses a non-str itself, so the parse of each value
            # token of a table pays for no separate type test
            text = str.strip(text)
        except TypeError:
            as_text("element text", text)  # raises, naming the parameter
            raise
        if not self.moduli:
            if text != "0":
                raise ParseError(f"bad trivial-group element {excerpt(text)!r} (expected '0')")
            return ()
        parts = text.split(",")
        if len(parts) != len(self.moduli):
            raise ParseError(
                f"element {excerpt(text)!r} has {len(parts)} residues, "
                f"expected {len(self.moduli)}"
            )
        residues = []
        for p, m in zip(parts, self.moduli):
            r = parse_decimal(p)
            # only the canonical text str(r) names residue r: no leading zero
            if r is None or (p[0] == "0" and p != "0"):
                raise ParseError(f"bad element text {excerpt(text)!r}")
            if r >= m:
                raise ParseError(
                    f"residue {excerpt(p)} out of range for modulus {excerpt(str(m))} "
                    f"in {excerpt(text)!r}"
                )
            residues.append(r)
        return tuple(residues)
