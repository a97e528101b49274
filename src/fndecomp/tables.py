"""Dense value tables for functions A^n -> B with mixed-radix indexing.

The alphabet is {0, ..., a_size-1} with 0 distinguished.  The index
convention is frozen so files and tests are bit-exact:

    index(x) = sum_i x[i] * a_size**i      (component 0 least significant)

Values are stored as group element codes (see groups.Group.encode); the
element-level view is available through eval / element_values.

``axis_fold`` is the one place where a map given per coordinate becomes a
list per table index: minors, the symmetry test, partial derivatives and the
odd-support maps are all built on it.  The calculus kernel's finite-difference
transform, support sizes and Taylor terms keep their own broadcasts, which
were measured faster there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product, repeat
from operator import add, itemgetter
from typing import Callable, Iterator, Sequence

from .errors import (
    ArgumentError,
    DomainError,
    ParseError,
    PreconditionError,
    ResourceError,
    ShapeError,
)
from .groups import Element, Group, parse_decimal

# Cells one table, or one Taylor materialization in all, may allocate: about
# 32 MB of value codes.
MAX_CELLS = 1 << 22


def iter_tuples(a_size: int, arity: int) -> Iterator[tuple[int, ...]]:
    """Domain tuples in table-index order (component 0 varies fastest)."""
    for combo in product(range(a_size), repeat=arity):
        yield combo[::-1]


def check_cells(a_size: int, arity: int) -> None:
    """ResourceError when a table of a_size**arity cells would exceed MAX_CELLS."""
    # with a_size >= 2 that many factors are over budget already, and the
    # capped exponent keeps the power small for any arity
    if a_size ** min(arity, MAX_CELLS.bit_length()) > MAX_CELLS:
        raise ResourceError(
            f"a table of {a_size}**{arity} cells exceeds the budget of {MAX_CELLS} cells"
        )


def axis_fold(a_size: int, axes: Sequence[Sequence[int]], op=add, start=0) -> list:
    """start op axes[0][x[0]] op ... op axes[n-1][x[n-1]] for every x, in
    table-index order; n = len(axes) and each axis has a_size entries."""
    out = [start]
    for axis in axes:
        # the new coordinate varies slowest: one copy of out per digit
        digits = chain.from_iterable(map(repeat, axis, repeat(len(out))))
        out = list(map(op, out * a_size, digits))
    return out


def linear_index(a_size: int, weights: Sequence[int], offset: int = 0) -> list[int]:
    """offset + sum_i x[i] * weights[i] for every x, in table-index order."""
    return axis_fold(a_size, [[d * w for d in range(a_size)] for w in weights], add, offset)


def tuple_index(a_size: int, x: Sequence[int]) -> int:
    idx = 0
    for c in reversed(x):
        idx = idx * a_size + c
    return idx


@dataclass(frozen=True)
class FnTable:
    """Total function {0..a_size-1}^arity -> group, as a flat tuple of value codes."""

    a_size: int
    arity: int
    group: Group
    values: tuple[int, ...]

    def __post_init__(self):
        if self.a_size < 2:
            raise ArgumentError(f"alphabet size must be >= 2, got {self.a_size}")
        if self.arity < 0:
            raise ArgumentError(f"arity must be >= 0, got {self.arity}")
        check_cells(self.a_size, self.arity)
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        expected = self.a_size**self.arity
        if len(values) != expected:
            raise ShapeError(f"expected {expected} values, got {len(values)}")
        order = self.group.order
        if min(values) < 0 or max(values) >= order:
            raise DomainError("value code out of range for group")

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
        for c in x:
            if not 0 <= c < self.a_size:
                raise DomainError(f"component {c} out of range for alphabet {self.a_size}")
        return tuple_index(self.a_size, x)

    def eval(self, x: Sequence[int]) -> Element:
        return self.group.decode(self.values[self.index_of(x)])

    def domain(self) -> Iterator[tuple[int, ...]]:
        return iter_tuples(self.a_size, self.arity)

    def element_values(self) -> list[Element]:
        decode = self.group.decode
        return [decode(v) for v in self.values]


# ----------------------------------------------------------------------
# minors
# ----------------------------------------------------------------------


def simple_minor(f: FnTable, sigma: Sequence[int], arity: int) -> FnTable:
    """Table g of the given arity with g(y) = f(y[sigma[0]], ..., y[sigma[n-1]])."""
    if len(sigma) != f.arity:
        raise ArgumentError(f"sigma has {len(sigma)} entries, arity is {f.arity}")
    if arity < 0 or (f.arity > 0 and arity == 0):
        raise ArgumentError("target arity must be positive when sigma is nonempty")
    for s in sigma:
        if not 0 <= s < arity:
            raise DomainError(f"sigma target {s} out of range for arity {arity}")
    a = f.a_size
    check_cells(a, arity)
    # the index into f of y is sum_i y[sigma[i]] * a**i
    weights = [0] * arity
    for i, s in enumerate(sigma):
        weights[s] += a**i
    return FnTable(a, arity, f.group, tuple(map(f.values.__getitem__, linear_index(a, weights))))


# 462 = n(n-1) pairs at n = 22, the largest Boolean arity within MAX_CELLS
@lru_cache(maxsize=512)
def _identification_getter(a_size: int, arity: int, i: int, j: int):
    weights = [a_size**t for t in range(arity)]
    weights[j] += weights[i]
    weights[i] = 0
    return itemgetter(*linear_index(a_size, weights))


def identification_minor(f: FnTable, i: int, j: int) -> FnTable:
    """Table of f with its i-th argument replaced by its j-th (i becomes inessential)."""
    n = f.arity
    if i == j:
        raise ArgumentError("cannot identify a variable with itself")
    if not (0 <= i < n and 0 <= j < n):
        raise ArgumentError(f"positions {i}, {j} out of range for arity {n}")
    getter = _identification_getter(f.a_size, n, i, j)
    return FnTable(f.a_size, n, f.group, getter(f.values))


# ----------------------------------------------------------------------
# essential variables, arity gap
# ----------------------------------------------------------------------


def essential_variables(f: FnTable) -> frozenset[int]:
    """Positions whose value can change the output (axis-aligned neighbor scan)."""
    a = f.a_size
    vals = f.values
    size = len(vals)
    ess = []
    stride = 1
    for i in range(f.arity):
        block = stride * a
        found = False
        for base in range(0, size, block):
            for off in range(base, base + stride):
                first = vals[off]
                for k in range(off + stride, base + block, stride):
                    if vals[k] != first:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if found:
            ess.append(i)
        stride = block
    return frozenset(ess)


def essential_arity(f: FnTable) -> int:
    return len(essential_variables(f))


def arity_gap(f: FnTable) -> int:
    """Minimum drop in essential arity over identifications of essential pairs.

    Identifying i with j and j with i give tables that differ only by the
    transposition of two coordinates, so unordered pairs suffice.
    """
    ess = sorted(essential_variables(f))
    m = len(ess)
    if m < 2:
        raise PreconditionError("arity gap undefined: fewer than two essential variables")
    best = m
    for p in range(len(ess)):
        for q in range(p + 1, len(ess)):
            g = identification_minor(f, ess[p], ess[q])
            drop = m - essential_arity(g)
            if drop < best:
                best = drop
                if best == 1:
                    return 1
    return best


def is_totally_symmetric(f: FnTable) -> bool:
    """Invariance under the transposition (0 1) and the cycle (0 1 ... n-1),
    which generate every permutation of the arguments."""
    n = f.arity
    if n < 2:
        return True
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return all(simple_minor(f, sigma, n).values == f.values for sigma in (swap, cycle))


def reduce_to_essential(f: FnTable) -> FnTable:
    """Restrict f to its essential coordinates (arity = essential arity)."""
    ess = sorted(essential_variables(f))
    m = len(ess)
    if m == f.arity:
        return f
    if m == 0:
        return FnTable(f.a_size, 0, f.group, (f.values[0],))
    sigma = [0] * f.arity
    for t, pos in enumerate(ess):
        sigma[pos] = t
    return simple_minor(f, tuple(sigma), m)


# ----------------------------------------------------------------------
# text file format
# ----------------------------------------------------------------------


def dump_table(f: FnTable) -> str:
    lines = [f"domain={f.a_size}", f"arity={f.arity}", f"group={f.group.to_text()}"]
    texts = [f.group.format_element(e) for e in f.element_values()]
    chunk = f.a_size ** min(f.arity, 2) if f.arity else 1
    for start in range(0, len(texts), chunk):
        lines.append(" ".join(texts[start:start + chunk]))
    return "\n".join(lines) + "\n"


def load_table(text: str) -> FnTable:
    headers: list[tuple[int, str]] = []
    value_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if len(headers) < 3:
            headers.append((lineno, line))
        else:
            value_lines.append((lineno, line))
    if len(headers) < 3:
        raise ParseError("table file needs domain=, arity= and group= header lines")
    fields = {}
    for (lineno, line), key in zip(headers, ("domain", "arity", "group")):
        prefix = key + "="
        if not line.startswith(prefix):
            raise ParseError(f"expected '{key}=...', got {line!r}", line=lineno)
        fields[key] = (lineno, line[len(prefix):].strip())
    for key in ("domain", "arity"):
        lineno, val = fields[key]
        number = parse_decimal(val)
        if number is None:
            raise ParseError(f"bad {key} value {val!r}", line=lineno)
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
    expected = a_size**arity
    codes: list[int] = []
    for lineno, line in value_lines:
        for token in line.split():
            if len(codes) >= expected:
                raise ParseError(f"more than {expected} values", line=lineno)
            try:
                codes.append(group.encode(group.parse_element(token)))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
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
