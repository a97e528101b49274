"""Dense value tables for functions A^n -> B with mixed-radix indexing.

The alphabet is {0, ..., a_size-1} with 0 distinguished.  The index
convention is frozen so files and tests are bit-exact:

    index(x) = sum_i x[i] * a_size**i      (component 0 least significant)

Values are stored as group element codes (see groups.Group.encode); the
element-level view is available through eval / element_values.  This module
holds the table, the index helpers and the text file format; the kernels on
essential variables, minors and the arity gap are in ``minors``.

``axis_fold`` is the one place where a map given per coordinate becomes a
list per table index: general minors and the odd-support masks of
``oddsupport.table_from_phi``, which builds every determined table (the
Boolean decomposition sums and the Z3 gap-2 form among them), are built on
it.  ``_support_sizes`` lists the number of nonzero digits per index by a byte
broadcast, which was measured faster than the fold for the calculus kernel
and serves the identities' subset walk too.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import product
from operator import add

from . import errors
from .errors import ArgumentError, DomainError, ParseError, ShapeError, charge, excerpt
from .groups import Element, Group, as_int, as_text, at_least, below, parse_decimal
from .records import Record

# Distinct value tokens one load_table call remembers: every element of a
# group of order up to 4096.  A table of mostly distinct values (a large
# cyclic codomain) would otherwise hold a string and a dict entry per cell.
TOKEN_MEMO_LIMIT = 1 << 12

# bytes.translate table adding 1 to every byte below 255
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def iter_tuples(a_size: int, arity: int) -> Iterator[tuple[int, ...]]:
    """Domain tuples in table-index order (component 0 varies fastest)."""
    for combo in product(range(a_size), repeat=arity):
        yield combo[::-1]


def check_cells(a_size: int, arity: int) -> tuple[int, int]:
    """a_size and arity as plain ints: ArgumentError unless they are integers
    with a_size >= 2 and arity >= 0, and ResourceError when a table of
    a_size**arity cells would exceed MAX_CELLS (errors.charge)."""
    a_size, arity = at_least("alphabet size", a_size, 2), at_least("arity", arity, 0)
    # with a_size >= 2 that many factors are over budget already, and the
    # capped exponent keeps the power small for any arity
    cells = a_size ** min(arity, errors.MAX_CELLS.bit_length())
    charge(cells, "cells", "a table of {}**{} cells", a_size, arity)
    return a_size, arity


def axis_fold(axes: Sequence[Sequence[int]], op=add) -> list:
    """0 op axes[0][x[0]] op ... op axes[n-1][x[n-1]] for every x, in
    table-index order; n = len(axes) and each axis has one entry per letter."""
    out = [0]
    for axis in axes:
        # the new coordinate varies slowest: one copy of out per digit
        out = [op(o, d) for d in axis for o in out]
    return out


def _support_sizes(a_size: int, arity: int) -> bytes:
    """Number of nonzero digits of x, per table index."""
    sizes = b"\0"
    for _ in range(arity):
        sizes += sizes.translate(_PLUS_ONE) * (a_size - 1)
    return sizes


def tuple_index(a_size: int, x: Sequence[int]) -> int:
    idx = 0
    for c in reversed(x):
        idx = idx * a_size + c
    return idx


class FnTable(Record):
    """Total function {0..a_size-1}^arity -> group, as a flat tuple of value codes."""

    _fields = ("a_size", "arity", "group", "values")

    def __init__(self, a_size: int, arity: int, group: Group, values: Sequence[int]):
        a_size, arity = check_cells(a_size, arity)
        try:
            values = tuple(values)
        except TypeError:
            raise ArgumentError(f"values must be a sequence of value codes, got "
                                f"{excerpt(type(values).__name__)}") from None
        expected = a_size**arity
        if len(values) != expected:
            raise ShapeError(f"expected {expected} values, got {len(values)}")
        # one pass in C over the codes, for their types: bool and numpy ints
        # have __index__, 0.5, 1.0 and "1" have not; the code to name is
        # looked for only then
        if not all(hasattr(kind, "__index__") for kind in set(map(type, values))):
            for v in values:
                as_int("value code", v)
        order = group.order
        if min(values) < 0 or max(values) >= order:
            raise DomainError("value code out of range for group")
        self.__dict__.update(a_size=a_size, arity=arity, group=group, values=values)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_callable(
        cls,
        a_size: int,
        arity: int,
        group: Group,
        fn: Callable[[tuple[int, ...]], Element],
    ) -> "FnTable":
        check_cells(a_size, arity)
        return cls(
            a_size, arity, group,
            tuple(group.encode(fn(x)) for x in iter_tuples(a_size, arity)),
        )

    @classmethod
    def constant(cls, a_size: int, arity: int, group: Group, value: Element) -> "FnTable":
        check_cells(a_size, arity)
        return cls(a_size, arity, group, (group.encode(value),) * a_size**arity)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def index_of(self, x: Sequence[int]) -> int:
        if len(x) != self.arity:
            raise DomainError(f"tuple has {len(x)} components, arity is {self.arity}")
        where = f"alphabet {self.a_size}"
        return tuple_index(self.a_size, [below("component", c, self.a_size, where) for c in x])

    def eval(self, x: Sequence[int]) -> Element:
        return self.group.decode(self.values[self.index_of(x)])

    def domain(self) -> Iterator[tuple[int, ...]]:
        return iter_tuples(self.a_size, self.arity)

    def element_values(self) -> list[Element]:
        decode = self.group.decode
        return [decode(v) for v in self.values]


# ----------------------------------------------------------------------
# text file format
# ----------------------------------------------------------------------


def dump_table(f: FnTable) -> str:
    lines = [f"domain={f.a_size}", f"arity={f.arity}", f"group={f.group.to_text()}"]
    # each distinct code is formatted once, as load_table parses each
    # distinct token once
    fmt, decode = f.group.format_element, f.group.decode
    text_of = {c: fmt(decode(c)) for c in set(f.values)}
    texts = [text_of[c] for c in f.values]
    chunk = f.a_size ** min(f.arity, 2) if f.arity else 1
    for start in range(0, len(texts), chunk):
        lines.append(" ".join(texts[start:start + chunk]))
    return "\n".join(lines) + "\n"


def load_table(text: str, check: Callable[[int, int, Group], None] | None = None) -> FnTable:
    """The table a text in the file format describes (see dump_table).

    check, when given, is called with the domain size, arity and group once
    the header is read, before any value is parsed: a caller refuses there
    what the header alone rules out, such as a codomain too wide to pack.

    One pass over the lines.  The first TOKEN_MEMO_LIMIT distinct value
    tokens are parsed once each and their codes remembered for the rest of
    this call; any later new token is parsed at each occurrence.  A table
    over a small group thus costs one element parse per distinct token and a
    dictionary lookup per cell.
    """
    lines = enumerate(as_text("table text", text).splitlines(), start=1)
    headers: list[tuple[int, str]] = []
    for lineno, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            headers.append((lineno, line))
            if len(headers) == 3:
                break
    if len(headers) < 3:
        raise ParseError("table file needs domain=, arity= and group= header lines")
    fields = {}
    for (lineno, line), key in zip(headers, ("domain", "arity", "group")):
        prefix = key + "="
        if not line.startswith(prefix):
            raise ParseError(f"expected '{key}=...', got {excerpt(line)!r}", line=lineno)
        fields[key] = (lineno, line[len(prefix):].strip())
    for key in ("domain", "arity"):
        lineno, val = fields[key]
        number = parse_decimal(val)
        if number is None:
            raise ParseError(f"bad {key} value {excerpt(val)!r}", line=lineno)
        fields[key] = (lineno, number)
    lineno, spec = fields["group"]
    try:
        group = Group.from_text(spec)
    except ParseError as exc:
        raise ParseError(str(exc), line=lineno) from None
    a_size = fields["domain"][1]
    arity = fields["arity"][1]
    if a_size < 2:
        raise ParseError(f"domain size must be >= 2, got {a_size}", line=fields["domain"][0])
    check_cells(a_size, arity)
    if check is not None:
        check(a_size, arity, group)
    expected = a_size**arity
    code_of: dict[str, int] = {}
    codes: list[int] = []
    for lineno, raw in lines:
        # split() and strip() share one notion of whitespace, so the first
        # token starts with '#' exactly on a comment line
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        for token in tokens:
            if len(codes) >= expected:
                raise ParseError(f"more than {expected} values", line=lineno)
            code = code_of.get(token)
            if code is None:
                try:
                    code = group.encode(group.parse_element(token))
                except ParseError as exc:
                    raise ParseError(str(exc), line=lineno) from None
                if len(code_of) < TOKEN_MEMO_LIMIT:
                    code_of[token] = code
            codes.append(code)
    if len(codes) != expected:
        raise ParseError(f"expected {expected} values, found {len(codes)}")
    return FnTable(a_size, arity, group, tuple(codes))


def decode_text(data: bytes, source) -> str:
    """data decoded strictly as UTF-8; a bad byte is a ParseError naming source."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_table_file(path) -> FnTable:
    with open(path, "rb") as fh:
        return load_table(decode_text(fh.read(), path))


def save_table_file(f: FnTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_table(f))
