"""Index kernels: essential variables, minors, the arity gap and total symmetry.

Every kernel here reads a table's value tuple (tables.FnTable) by the index
convention of ``tables``; none changes a value.  ``zero_slices`` is the one
plan for a scan along coordinates: it covers the cells where a few
coordinates are 0 by strided slices of the value tuple, and moving a slice by
d * a**t reads the cells where x_t = d.  Essential variables and the drop in
essential arity of one identification walk it; the symmetry and odd-support
determination tests compare slices of their own.  ``essential_restriction``
finds the essential variables and the restriction to them in one pass, and
``essential_variables`` and ``reduce_to_essential`` are its two projections.
The restriction is no general minor: it reads the cells with every
inessential coordinate 0 off slices of the value tuple, and lists no index
per cell.  General minors (``simple_minor``) are built on ``tables.axis_fold``.

The Taylor decompositions need none of this, only the table and its
derivatives (``calculus``), so ``decompose --mode taylor`` never loads it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import ArgumentError, PreconditionError, excerpt_int
from .groups import as_int, below
from .tables import FnTable, axis_fold, check_cells

# Cells per slice of zero_slices: small enough that a slice copy is a short
# temporary, large enough that the per-slice Python overhead is amortized.
RUN = 256


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


# ----------------------------------------------------------------------
# minors
# ----------------------------------------------------------------------


def simple_minor(f: FnTable, sigma: Sequence[int], arity: int) -> FnTable:
    """Table g of the given arity with g(y) = f(y[sigma[0]], ..., y[sigma[n-1]])."""
    if len(sigma) != f.arity:
        raise ArgumentError(f"sigma has {len(sigma)} entries, arity is {f.arity}")
    arity = as_int("target arity", arity)
    if arity < 0 or (f.arity > 0 and arity == 0):
        raise ArgumentError("target arity must be positive when sigma is nonempty")
    where = f"arity {excerpt_int(arity)}"
    sigma = [below("sigma target", s, arity, where) for s in sigma]
    a = f.a_size
    check_cells(a, arity)
    # the index into f of y is sum_i y[sigma[i]] * a**i
    weights = [sum(a**i for i, s in enumerate(sigma) if s == k) for k in range(arity)]
    index = axis_fold([[d * w for d in range(a)] for w in weights])
    return FnTable(a, arity, f.group, tuple(map(f.values.__getitem__, index)))


def identification_minor(f: FnTable, i: int, j: int) -> FnTable:
    """Table of f with its i-th argument replaced by its j-th (i becomes inessential)."""
    n = f.arity
    i, j = (below("position", p, n, f"arity {n}", ArgumentError) for p in (i, j))
    if i == j:
        raise ArgumentError("cannot identify a variable with itself")
    sigma = list(range(n))
    sigma[i] = j
    return simple_minor(f, sigma, n)


# ----------------------------------------------------------------------
# essential variables, arity gap
# ----------------------------------------------------------------------


def _moves_change(vals: Sequence[int], a: int, arity: int, bound: Sequence[int], move: int,
                  shifts: Sequence[int] = (0,)) -> bool:
    """Whether some cell of zero_slices(a, arity, bound), plus one of shifts,
    differs from its copy moved by d * move, d = 1..a-1, in the values vals
    of an a-letter table of that arity.

    Cell 0 and its moves are compared first, as one strided slice: most
    tables differ there.  Otherwise each slice is compared in turn, up to the
    first that differs.
    """
    if vals[:a * move:move].count(vals[0]) < a:
        return True
    moves = range(move, a * move, move)
    for lo, hi, step in zero_slices(a, arity, bound):
        for e in shifts:
            ref = vals[lo + e:hi + e:step]
            for d in moves:
                if ref != vals[lo + e + d:hi + e + d:step]:
                    return True
    return False


def essential_restriction(f: FnTable) -> tuple[tuple[int, ...], FnTable]:
    """The essential positions of f, ascending, and the restriction g of f to
    them (arity = essential arity): the cells with x_t = 0 for every
    inessential t, in table-index order.

    One pass takes t from high to low.  x_t is essential when some cell of
    the current table with x_t = 0 differs from its copy moved to x_t = d
    (_moves_change); otherwise it is dropped at once, which leaves every
    lower coordinate in place and makes each later scan |A| times shorter.
    Dropping x_t keeps the first a**t cells of each block of a**(t+1): one
    slice per block or one strided slice per kept offset, whichever are
    fewer.  One table is built, after the pass, and g is f when every
    variable is essential.
    """
    a, vals, kept = f.a_size, f.values, []
    for t in reversed(range(f.arity)):
        if _moves_change(vals, a, t + 1 + len(kept), (t,), a**t):
            kept.append(t)
            continue
        keep, block = a**t, a**(t + 1)
        if len(vals) == block or keep == 1:
            vals = vals[:keep] if len(vals) == block else vals[::block]
            continue
        out = [0] * (len(vals) // a)
        if len(vals) // block <= keep:
            for b, s in enumerate(range(0, len(vals), block)):
                out[b * keep:(b + 1) * keep] = vals[s:s + keep]
        else:
            for o in range(keep):
                out[o::keep] = vals[o::block]
        vals = out
    return tuple(kept[::-1]), f if vals is f.values else FnTable(a, len(kept), f.group, vals)


def essential_variables(f: FnTable) -> frozenset[int]:
    """Positions k whose value can change the output (essential_restriction)."""
    return frozenset(essential_restriction(f)[0])


def essential_arity(f: FnTable) -> int:
    return len(essential_variables(f))


def reduce_to_essential(f: FnTable) -> FnTable:
    """Restrict f to its essential coordinates (essential_restriction)."""
    return essential_restriction(f)[1]


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
    return restriction_gap(reduce_to_essential(f))


def restriction_gap(g: FnTable) -> int:
    """Arity gap of g, all of whose variables are essential: the one place
    that chooses between the two ways arity_gap describes."""
    if g.arity < 2:
        raise PreconditionError("arity gap undefined: fewer than two essential variables")
    if g.arity > pair_scan_limit(g.a_size):
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
            kept += _moves_change(g.values, a, m, (i, j), pair)
        else:
            kept += _moves_change(g.values, a, m, (i, j, k), a**k, range(0, a * pair, pair))
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
