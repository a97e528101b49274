"""Dense value tables for functions A^n -> B with mixed-radix indexing.

The alphabet is {0, ..., a_size-1} with 0 distinguished.  The index
convention is frozen so files and tests are bit-exact:

    index(x) = sum_i x[i] * a_size**i      (component 0 least significant)

Values are stored as group element codes (see groups.Group.encode); the
element-level view is available through eval / element_values.

``axis_fold`` is the one place where a map given per coordinate becomes a
list per table index: minors and the odd-support maps are built on it.
``zero_slices`` is the one plan for a scan along coordinates: it covers the
cells where a few coordinates are 0 by strided slices of the value tuple, and
moving a slice by d * a**t reads the cells where x_t = d.  Essential
variables, the drop in essential arity of one identification, partial
derivatives and the finite-difference transform of the calculus all walk it;
the symmetry and odd-support determination tests compare slices of their
own.  ``by_letter_counts`` folds the letter counts of each x into one class
key on ``axis_fold`` and evaluates a symmetric function once per class: the
Boolean decomposition sums and the Z3 gap-2 form are broadcast from there.
The calculus kernel's support sizes and Taylor terms keep their own
broadcasts, which were measured faster there.
"""

from __future__ import annotations

from itertools import product
from operator import add
from typing import Callable, Iterator, Sequence

from .errors import (
    ArgumentError,
    DomainError,
    ParseError,
    PreconditionError,
    ResourceError,
    ShapeError,
    excerpt,
)
from .groups import Element, Group, parse_decimal
from .records import Record

# Cells one table, or one Taylor materialization in all, may allocate: about
# 32 MB of value codes.
MAX_CELLS = 1 << 22

# Distinct value tokens one load_table call remembers: every element of a
# group of order up to 4096.  A table of mostly distinct values (a large
# cyclic codomain) would otherwise hold a string and a dict entry per cell.
TOKEN_MEMO_LIMIT = 1 << 12

# Cells per slice of zero_slices: small enough that a slice copy is a short
# temporary, large enough that the per-slice Python overhead is amortized.
RUN = 256


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
        out = [op(o, d) for d in axis for o in out]
    return out


def by_letter_counts(a_size: int, arity: int, fn: Callable[[list[int]], int]) -> list:
    """fn(counts) for every x, in table-index order, where counts[d] is how
    often letter d occurs in x; fn is called once per distinct count vector."""
    check_cells(a_size, arity)
    base = arity + 1
    # letter 0 takes no digit (its count is arity minus the others): with at
    # most three letters every key within MAX_CELLS stays below 257, so the
    # key list holds CPython's shared small ints, not one new int per cell
    keys = axis_fold(a_size, [[0] + [base**d for d in range(a_size - 1)]] * arity)
    value = {}
    for key in dict.fromkeys(keys):
        counts = [key // base**d % base for d in range(a_size - 1)]
        value[key] = fn([arity - sum(counts)] + counts)
    return list(map(value.__getitem__, keys))


def linear_index(a_size: int, weights: Sequence[int], offset: int = 0) -> list[int]:
    """offset + sum_i x[i] * weights[i] for every x, in table-index order."""
    return axis_fold(a_size, [[d * w for d in range(a_size)] for w in weights], add, offset)


def zero_slices(a_size: int, arity: int, bound: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(start, stop, step) slices of at most RUN cells that cover, once each,
    the cells with x_t = 0 for every t in bound (distinct positions).

    The widest run of consecutive free coordinates, the higher one on a tie,
    is read as strided slices; the other free coordinates give the slice
    starts, in table-index order.  Adding d * a_size**t to a slice moves it
    to the cells with x_t = d.
    """
    # the runs [lo, hi) of free coordinates between the bound ones
    runs, lo = [], 0
    for t in sorted(bound):
        runs.append((t - lo, lo, t))
        lo = t + 1
    runs.append((arity - lo, lo, arity))
    _, lo, hi = max(runs)
    # the other runs give the starts, each new run varying slower
    starts = [0]
    for _, l, h in runs:
        if l < h and l != lo:
            starts = [s + o for o in range(0, a_size**h, a_size**l) for s in starts]
    step, width = a_size**lo, a_size**hi
    chunk = RUN * step
    # one slice per start when the run fits: tiny tables skip a range per start
    if width <= chunk:
        return ((s, s + width, step) for s in starts)
    return ((c, min(c + chunk, s + width), step)
            for s in starts for c in range(s, s + width, chunk))


def tuple_index(a_size: int, x: Sequence[int]) -> int:
    idx = 0
    for c in reversed(x):
        idx = idx * a_size + c
    return idx


class FnTable(Record):
    """Total function {0..a_size-1}^arity -> group, as a flat tuple of value codes."""

    _fields = ("a_size", "arity", "group", "values")

    def __init__(self, a_size: int, arity: int, group: Group, values: Sequence[int]):
        if a_size < 2:
            raise ArgumentError(f"alphabet size must be >= 2, got {a_size}")
        if arity < 0:
            raise ArgumentError(f"arity must be >= 0, got {arity}")
        check_cells(a_size, arity)
        values = tuple(values)
        expected = a_size**arity
        if len(values) != expected:
            raise ShapeError(f"expected {expected} values, got {len(values)}")
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


def identification_minor(f: FnTable, i: int, j: int) -> FnTable:
    """Table of f with its i-th argument replaced by its j-th (i becomes inessential)."""
    n = f.arity
    if i == j:
        raise ArgumentError("cannot identify a variable with itself")
    if not (0 <= i < n and 0 <= j < n):
        raise ArgumentError(f"positions {i}, {j} out of range for arity {n}")
    sigma = list(range(n))
    sigma[i] = j
    return simple_minor(f, sigma, n)


# ----------------------------------------------------------------------
# essential variables, arity gap
# ----------------------------------------------------------------------


def _moves_change(f: FnTable, bound: Sequence[int], move: int,
                  shifts: Sequence[int] = (0,)) -> bool:
    """Whether some cell of zero_slices(f.a_size, f.arity, bound), plus one of
    shifts, differs from its copy moved by d * move, d = 1..a_size-1.

    Cell 0 and its moves are compared first, as one strided slice: most
    tables differ there.  Otherwise each slice is compared in turn, up to the
    first that differs.
    """
    a, vals = f.a_size, f.values
    if vals[:a * move:move].count(vals[0]) < a:
        return True
    moves = range(move, a * move, move)
    for lo, hi, step in zero_slices(a, f.arity, bound):
        for e in shifts:
            ref = vals[lo + e:hi + e:step]
            for d in moves:
                if ref != vals[lo + e + d:hi + e + d:step]:
                    return True
    return False


def essential_variables(f: FnTable) -> frozenset[int]:
    """Positions k whose value can change the output: some cell with x_k = 0
    differs from its copy moved to x_k = d."""
    return frozenset(k for k in range(f.arity) if _moves_change(f, (k,), f.a_size**k))


def essential_arity(f: FnTable) -> int:
    return len(essential_variables(f))


def pair_scan_limit(a_size: int) -> int:
    """Largest essential arity, max(|A|, 3), at which arity_gap scans pairs."""
    return max(a_size, 3)


def arity_gap(f: FnTable) -> int:
    """Minimum drop in essential arity over identifications of essential pairs.

    The gap of f is the gap of its restriction to the essential coordinates.
    Above essential arity pair_scan_limit(|A|) it is 2 when that restriction
    is determined by odd support and 1 otherwise (Willard; Couceiro and
    Lehtonen), read off slices of its values by determined_via_symmetry in
    O(|A|^n).  At or below it the pairs are scanned
    (pair_scan_gap), at most C(max(|A|, 3), 2) of them.
    """
    g = reduce_to_essential(f)
    m = g.arity
    if m < 2:
        raise PreconditionError("arity gap undefined: fewer than two essential variables")
    if m > pair_scan_limit(f.a_size):
        return 2 if determined_via_symmetry(g) else 1
    return pair_scan_gap(g)


def pair_scan_gap(g: FnTable) -> int:
    """Arity gap of g, all of whose m >= 2 variables are essential, by the
    definition: the least m - essential_arity over its identification minors.

    The pairs are tried in the order (0, 1), (0, 2), ..., (1, 2), ..., and the
    scan stops at the first drop of 1, since no identification drops less.
    Identifying i with j and j with i give tables that differ only by the
    transposition of two coordinates, so unordered pairs suffice.  Each drop
    is read off the value tuple by _identification_drop; no minor is built.
    """
    m = g.arity
    best = m
    for i in range(m):
        for j in range(i + 1, m):
            best = min(best, _identification_drop(g, i, j))
            if best == 1:
                return 1
    return best


def _identification_drop(g: FnTable, i: int, j: int) -> int:
    """m - essential_arity(identification_minor(g, i, j)) for a table g whose
    m variables are all essential, without building the minor.

    The minor takes its values on the cells with x_i = x_j.  It keeps
    variable k != i exactly when some such cell differs from the cell that
    moves x_k alone (for k = j, x_i and x_j together).  The cells with x_k = 0
    suffice, since two cells that differ cannot both equal that one: they are
    the slices of zero_slices(bound=(i, j, k)) moved to each common letter of
    x_i and x_j.  Each k stops at the first slice that differs.
    """
    a, m = g.a_size, g.arity
    pair = a**i + a**j
    kept = 0
    for k in range(m):
        if k == i:
            continue
        if k == j:
            kept += _moves_change(g, (i, j), pair)
        else:
            kept += _moves_change(g, (i, j, k), a**k, range(0, a * pair, pair))
    return m - kept


def is_totally_symmetric(f: FnTable) -> bool:
    """Invariance under the transposition (0 1) and the cycle (0 1 ... n-1),
    which generate every permutation of the arguments.

    Both are compared on slices of the value tuple, without building a minor:
    the cells with x0 = u, x1 = v are values[u + a*v :: a*a], those with
    x0 = r are values[r::a] and those with x[n-1] = r the r-th block of
    a**(n-1), the last two in the order of the remaining coordinates.
    """
    n = f.arity
    if n < 2:
        return True
    a, vals = f.a_size, f.values
    square, block = a * a, a ** (n - 1)
    # f(1, 0, ...) against f(0, 1, ...) first: most asymmetric tables differ there
    return (vals[1] == vals[a]
            and all(vals[u + a * v::square] == vals[v + a * u::square]
                    for u in range(a) for v in range(u + 1, a))
            and all(vals[r::a] == vals[r * block:(r + 1) * block] for r in range(a)))


def determined_via_symmetry(f: FnTable) -> bool:
    """Whether f is determined by odd support: it is totally symmetric and
    f(d, d, x2, ...), the slice values[d * (a+1) :: a*a], does not depend on d."""
    if f.arity < 1:
        raise PreconditionError("odd-support determination needs arity >= 1")
    a, vals = f.a_size, f.values
    square = a * a
    return f.arity == 1 or (is_totally_symmetric(f) and all(
        vals[d * (a + 1)::square] == vals[::square] for d in range(1, a)))


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
    """The table a text in the file format describes (see dump_table).

    One pass over the lines.  The first TOKEN_MEMO_LIMIT distinct value
    tokens are parsed once each and their codes remembered for the rest of
    this call; any later new token is parsed at each occurrence.  A table
    over a small group thus costs one element parse per distinct token and a
    dictionary lookup per cell.
    """
    lines = enumerate(text.splitlines(), start=1)
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
