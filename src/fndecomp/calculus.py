"""Discrete derivative calculus for finite functions into abelian groups.

The derivative of f with respect to position i at parameter a is the table
x -> f(x with component i set to a) - f(x).  Derivatives with respect to
different positions commute, so higher derivatives are indexed by a set of
positions plus a parameter tuple (components outside the set are irrelevant).

Summing the derivatives of f at 0 over all position sets reconstructs f
exactly; a function is a sum of essentially-at-most-k-ary functions precisely
when all its derivatives on more than k positions vanish at 0.  That criterion
drives the decomposability tests here.

Every derivative value at 0 comes from one finite-difference transform
of the table (``_derivative_coefficients``): the decomposability tests scan it
and the Taylor terms are broadcast from it.  ``derivative_at_zero`` evaluates a
single derivative on its own, with plain modular sums, and serves as the
independent check.  Every derivative table is built on the packed table of
``packing.Packing`` by one shift, ``_copied_along``: it masks the cells with
x_i = b and copies them along i, every cell at once.  A pass of the transform
or of ``higher_derivative`` takes the difference of the table and that copy;
a Taylor term keeps the coefficients whose support is exactly its position
set and copies them along every other position.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, compress
from math import comb
from typing import Iterable, Sequence

from .errors import (MAX_CELLS, ArgumentError, DomainError, InternalConsistencyError,
                     PreconditionError, ResourceError, excerpt_int)
from .groups import Element, as_int, below
from .packing import Packing
from .tables import FnTable, _support_sizes

Witness = tuple[frozenset[int], tuple[int, ...]]


def _check_positions(f: FnTable, vars: Iterable[int]) -> list[int]:
    where = f"arity {f.arity}"
    return sorted({below("position", i, f.arity, where, ArgumentError) for i in vars})


def _check_point(f: FnTable, x: Sequence[int]) -> tuple[int, ...]:
    if len(x) != f.arity:
        raise DomainError(f"parameter tuple has {len(x)} components, arity is {f.arity}")
    where = f"alphabet {f.a_size}"
    return tuple(below("parameter tuple component", c, f.a_size, where) for c in x)


def _copied_along(p: Packing, c: int, a_size: int, arity: int, i: int, b: int,
                  digits: Iterable[int]) -> int:
    """The cells of the packed table c with x_i = b, copied to the cells with
    x_i = d for each d in digits, and zero elsewhere."""
    run = a_size**i * p.width
    block = bytes(b * run) + b"\xff" * run + bytes((a_size - 1 - b) * run)
    ref = c & int.from_bytes(block * a_size ** (arity - i - 1), "little")
    return sum(ref << (d - b) * 8 * run if d >= b else ref >> (b - d) * 8 * run for d in digits)


def partial_derivative(f: FnTable, i: int, a_val: int) -> FnTable:
    """Table of f(x with position i set to a_val) - f(x)."""
    i = below("position", i, f.arity, f"arity {f.arity}", ArgumentError)
    a_val = below("parameter", a_val, f.a_size, f"alphabet {f.a_size}")
    params = [0] * f.arity
    params[i] = a_val
    return higher_derivative(f, (i,), params)


def higher_derivative(f: FnTable, vars: Iterable[int], params: Sequence[int]) -> FnTable:
    """Iterated single derivatives, applied in ascending position order: one
    pass per position on the packed table."""
    positions = _check_positions(f, vars)
    params = _check_point(f, params)
    a = f.a_size
    p = Packing(f.group, len(f.values))
    c = p.pack(f.values)
    for i in positions:
        c = p.sub(_copied_along(p, c, a, f.arity, i, params[i], range(a)), c)
    return FnTable(a, f.arity, f.group, p.unpack(c))


def derivative_at_zero(f: FnTable, vars: Iterable[int], params: Sequence[int]) -> Element:
    """Value of the derivative at the all-zero tuple.

    Counts how often each value code enters the alternating sum with each
    sign, without building any table, and sums the residues of each cyclic
    factor on their own: the independent check of the packed transform.
    """
    positions = _check_positions(f, vars)
    params = _check_point(f, params)
    a = f.a_size
    # indices of the cells on an even and an odd number of positions
    even, odd = [0], []
    for i in positions:
        delta = params[i] * a**i
        moved = list(map(delta.__add__, odd))
        odd += map(delta.__add__, even)
        even += moved
    if len(positions) & 1:
        even, odd = odd, even
    vals, group = f.values, f.group
    sums = [0] * len(group.moduli)
    for sign, offsets in ((1, even), (-1, odd)):
        for code, count in Counter(map(vals.__getitem__, offsets)).items():
            for t, r in enumerate(group.decode(code)):
                sums[t] += sign * count * r
    return tuple(s % m for s, m in zip(sums, group.moduli))


# ----------------------------------------------------------------------
# Taylor expansion and decomposability
# ----------------------------------------------------------------------


def check_k(arity: int, k: int) -> int:
    """k as a plain int (groups.as_int), in the range 0 <= k <= arity of the
    decomposability tests."""
    k = as_int("k", k)
    if not 0 <= k <= arity:
        raise ArgumentError(f"k must be between 0 and {excerpt_int(arity)}, got {excerpt_int(k)}")
    return k


def _derivative_coefficients(f: FnTable) -> Sequence[int]:
    """Codes c with c[index(x)] = the derivative of f at 0 on the nonzero
    positions of x, with parameters x.

    Mixed-radix finite-difference transform on the packed table: one pass per
    coordinate i subtracts, from every x with x_i != 0, the entry with
    x_i = 0, all cells at once.  Costs arity * |A|**arity field
    subtractions, done as a few big-int operations per pass.
    """
    a = f.a_size
    p = Packing(f.group, len(f.values))
    c = p.pack(f.values)
    for i in range(f.arity):
        c = p.sub(c, _copied_along(p, c, a, f.arity, i, 0, range(1, a)))
    return p.unpack(c)


def _top_size(sizes: bytes, c: Sequence[int]) -> int:
    """Largest support size with a nonzero coefficient (0 if none)."""
    return max(compress(sizes, c), default=0)


def _first_witness(f: FnTable, c: Sequence[int], k: int) -> Witness | None:
    """The witness of decomposability_witness, read off the coefficients c."""
    sizes = _support_sizes(f.a_size, f.arity)
    top = _top_size(sizes, c)
    if top <= k:
        return None
    a = f.a_size
    powers = [a**i for i in range(f.arity)]

    def mask_and_params(idx):
        x = tuple((idx // p) % a for p in powers)
        return sum(1 << i for i, d in enumerate(x) if d), x

    # among the largest supports: mask ascending, then parameters lexicographic
    mask, params = min(
        mask_and_params(idx) for idx, (s, v) in enumerate(zip(sizes, c)) if v and s == top
    )
    return (frozenset(i for i in range(f.arity) if mask >> i & 1), params)


def _check_taylor_cells(f: FnTable, terms: int) -> None:
    cells = terms * len(f.values)
    if cells > MAX_CELLS:
        raise ResourceError(
            f"{terms} Taylor terms of {len(f.values)} cells each exceed the "
            f"materialization budget of {MAX_CELLS} cells"
        )


def _taylor_terms_upto(
    f: FnTable, c: Sequence[int], k: int
) -> list[tuple[frozenset[int], FnTable]]:
    """The terms on at most k positions, by size ascending, then mask ascending.

    Term I keeps the coefficients on the cells whose support is exactly I:
    it drops the cells with x_i = 0 for each i in I, and copies the cells
    with x_j = 0 along every other position j.
    """
    a, n = f.a_size, f.arity
    p = Packing(f.group, len(c))
    packed = p.pack(c)
    terms = []
    for s in range(k + 1):
        for mask in sorted(sum(1 << i for i in I) for I in combinations(range(n), s)):
            t = packed
            for i in range(n):
                if mask >> i & 1:
                    t -= _copied_along(p, t, a, n, i, 0, (0,))
                else:
                    t = _copied_along(p, t, a, n, i, 0, range(a))
            positions = frozenset(i for i in range(n) if mask >> i & 1)
            terms.append((positions, FnTable(a, n, f.group, p.unpack(t))))
    return terms


def taylor_terms(f: FnTable) -> list[tuple[frozenset[int], FnTable]]:
    """One term table per position set I: x -> derivative of f on I at 0,
    evaluated with parameter x.  The 2**arity terms sum to f exactly.

    Terms come by size of I ascending, then by bitmask of I ascending.  Raises
    ResourceError, before the transform, when the 2**arity * |A|**arity cells
    exceed MAX_CELLS; the terms are decompose_via_taylor(f, arity), so they
    are added back up to f before they are returned.
    """
    _check_taylor_cells(f, 1 << f.arity)
    return decompose_via_taylor(f, f.arity)


def decomposability_witness(f: FnTable, k: int) -> Witness | None:
    """First (positions, params) with a nonvanishing derivative on more than k
    positions, or None when f is k-decomposable.

    Search order: position-set size descending, then mask ascending, then
    parameter tuples in lexicographic order over ascending positions.
    Components of params outside the positions are 0.
    """
    k = check_k(f.arity, k)
    return _first_witness(f, _derivative_coefficients(f), k)


def is_k_decomposable(f: FnTable, k: int) -> bool:
    """True when f is a sum of functions each with essential arity at most k."""
    return decomposability_witness(f, k) is None


def min_decomposition_arity(f: FnTable) -> int:
    """Largest position-set size with a nonvanishing derivative at 0 (0 if none)."""
    return _top_size(_support_sizes(f.a_size, f.arity), _derivative_coefficients(f))


def decompose_via_taylor(f: FnTable, k: int) -> list[tuple[frozenset[int], FnTable]]:
    """The (positions, term) pairs of the Taylor terms on at most k positions,
    in the order of taylor_terms; the terms sum to f exactly, which is
    checked by adding them back up on the packed table before they are
    returned.

    Raises PreconditionError carrying the violating witness when f is not
    k-decomposable, ResourceError when the terms would exceed MAX_CELLS, and
    InternalConsistencyError when the terms do not add back up to f.
    """
    k = check_k(f.arity, k)
    c = _derivative_coefficients(f)
    witness = _first_witness(f, c, k)
    if witness is not None:
        positions, params = witness
        raise PreconditionError(
            f"not {k}-decomposable: derivative on positions "
            f"{sorted(positions)} with parameters {params} is nonzero",
            witness=witness,
        )
    _check_taylor_cells(f, sum(comb(f.arity, s) for s in range(k + 1)))
    terms = _taylor_terms_upto(f, c, k)
    p = Packing(f.group, len(f.values))
    total = 0
    for _, term in terms:
        total = p.add(total, p.pack(term.values))
    if total != p.pack(f.values):
        raise InternalConsistencyError("taylor summands do not add back to f")
    return terms
