"""Discrete derivative calculus for finite functions into abelian groups.

The derivative of f with respect to position i at parameter a is the table
x -> f(x with component i set to a) - f(x).  Derivatives with respect to
different positions commute, so higher derivatives are indexed by a set of
positions plus a parameter tuple (components outside the set are irrelevant).

Summing the derivatives of f at a base point over all position sets
reconstructs f exactly; a function is a sum of essentially-at-most-k-ary
functions precisely when all its derivatives on more than k positions vanish
at the base point.  That criterion drives the decomposability tests here.

Every derivative value at the base comes from one finite-difference transform
of the table (``_derivative_coefficients``): the decomposability tests scan it
and the Taylor terms are broadcast from it.  ``derivative_at_zero`` evaluates a
single derivative on its own and serves as the independent check.  The
transform and ``partial_derivative`` walk the table along one coordinate at a
time through ``tables.zero_slices``, the slice plan that essential variables
and the arity gap read too.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import ArgumentError, DomainError, PreconditionError, ResourceError
from .groups import Element
from .tables import MAX_CELLS, FnTable, tuple_index, zero_slices

# bytes.translate table adding 1 to every byte below 255
_PLUS_ONE = bytes(range(1, 256)) + b"\0"

Witness = tuple[frozenset[int], tuple[int, ...]]


def _check_positions(f: FnTable, vars: Iterable[int]) -> list[int]:
    out = sorted(set(vars))
    for i in out:
        if not 0 <= i < f.arity:
            raise ArgumentError(f"position {i} out of range for arity {f.arity}")
    return out


def _check_point(f: FnTable, x: Sequence[int], what: str) -> tuple[int, ...]:
    if len(x) != f.arity:
        raise DomainError(f"{what} has {len(x)} components, arity is {f.arity}")
    for c in x:
        if not 0 <= c < f.a_size:
            raise DomainError(f"{what} component {c} out of range for alphabet {f.a_size}")
    return tuple(x)


def partial_derivative(f: FnTable, i: int, a_val: int) -> FnTable:
    """Table of f(x with position i set to a_val) - f(x)."""
    if not 0 <= i < f.arity:
        raise ArgumentError(f"position {i} out of range for arity {f.arity}")
    if not 0 <= a_val < f.a_size:
        raise DomainError(f"parameter {a_val} out of range for alphabet {f.a_size}")
    a, vals = f.a_size, f.values
    sub = f.group.code_sub_table
    stride = a**i
    out = [0] * len(vals)
    for lo, hi, step in zero_slices(a, f.arity, (i,)):
        ref = vals[lo + a_val * stride:hi + a_val * stride:step]
        for d in range(0, a * stride, stride):
            out[lo + d:hi + d:step] = [sub[u][v] for u, v in zip(ref, vals[lo + d:hi + d:step])]
    return FnTable(a, f.arity, f.group, out)


def higher_derivative(f: FnTable, vars: Iterable[int], params: Sequence[int]) -> FnTable:
    """Iterated single derivatives, applied in ascending position order."""
    positions = _check_positions(f, vars)
    params = _check_point(f, params, "parameter tuple")
    out = f
    for i in positions:
        out = partial_derivative(out, i, params[i])
    return out


def derivative_at_zero(
    f: FnTable,
    vars: Iterable[int],
    params: Sequence[int],
    base: Sequence[int] | None = None,
) -> Element:
    """Value of the derivative at the base point (all-zero tuple by default).

    Streams the alternating sum without building any table.
    """
    positions = _check_positions(f, vars)
    params = _check_point(f, params, "parameter tuple")
    base = (0,) * f.arity if base is None else _check_point(f, base, "base point")
    a = f.a_size
    s = len(positions)
    base_idx = tuple_index(a, base)
    deltas = [(params[i] - base[i]) * a**i for i in positions]
    # subset_sum[m] = sum of deltas over the bits of m
    subset_sum = [0] * (1 << s)
    for m in range(1, 1 << s):
        low = m & -m
        subset_sum[m] = subset_sum[m ^ low] + deltas[low.bit_length() - 1]
    add = f.group.code_add_table
    sub = f.group.code_sub_table
    vals = f.values
    acc = 0
    for m in range(1 << s):
        term = vals[base_idx + subset_sum[m]]
        if (s - m.bit_count()) & 1:
            acc = sub[acc][term]
        else:
            acc = add[acc][term]
    return f.group.decode(acc)


# ----------------------------------------------------------------------
# Taylor expansion and decomposability
# ----------------------------------------------------------------------


def _check_base(f: FnTable, base: Sequence[int] | None) -> tuple[int, ...]:
    return (0,) * f.arity if base is None else _check_point(f, base, "base point")


def _check_k(f: FnTable, k: int) -> None:
    if not 0 <= k <= f.arity:
        raise ArgumentError(f"k must be between 0 and {f.arity}, got {k}")


def _derivative_coefficients(f: FnTable, base: tuple[int, ...]) -> list[int]:
    """Codes c with c[index(x)] = the derivative of f at base on the positions
    where x differs from base, with parameters x.

    Mixed-radix finite-difference transform: one in-place pass per coordinate
    i subtracts, from every x with x_i != base_i, the entry with x_i = base_i,
    a slice of zero_slices(bound=(i,)) at a time.  Costs arity * |A|**arity
    code subtractions.
    """
    a = f.a_size
    sub = f.group.code_sub_table
    c = list(f.values)
    for i, b in enumerate(base):
        stride = a**i
        for lo, hi, step in zero_slices(a, f.arity, (i,)):
            ref = c[lo + b * stride:hi + b * stride:step]
            for d in range(a):
                if d != b:
                    run = slice(lo + d * stride, hi + d * stride, step)
                    c[run] = [sub[u][v] for u, v in zip(c[run], ref)]
    return c


def _support_sizes(a_size: int, base: tuple[int, ...]) -> bytes:
    """Number of positions where x differs from base, per table index."""
    sizes = b"\0"
    for b in base:
        more = sizes.translate(_PLUS_ONE)
        sizes = b"".join(sizes if d == b else more for d in range(a_size))
    return sizes


def _top_size(sizes: bytes, c: list[int]) -> int:
    """Largest support size with a nonzero coefficient (0 if none)."""
    return max((s for s, v in zip(sizes, c) if v), default=0)


def _first_witness(
    f: FnTable, base: tuple[int, ...], c: list[int], k: int
) -> Witness | None:
    """The witness of decomposability_witness, read off the coefficients c."""
    sizes = _support_sizes(f.a_size, base)
    top = _top_size(sizes, c)
    if top <= k:
        return None
    a = f.a_size
    powers = [a**i for i in range(f.arity)]

    def mask_and_params(idx):
        x = [(idx // p) % a for p in powers]
        mask = sum(1 << i for i, (d, b) in enumerate(zip(x, base)) if d != b)
        return mask, tuple(d if d != b else 0 for d, b in zip(x, base))

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


def _term_table(f: FnTable, base: tuple[int, ...], c: list[int], mask: int) -> FnTable:
    """Term of the position set I = bits of mask: x -> c at (x on I, base
    elsewhere), which is zero where some x_i on I equals base_i."""
    a = f.a_size
    # source index into c per table index, -1 where the term is zero
    src = [sum(b * a**i for i, b in enumerate(base) if not mask >> i & 1)]
    stride = 1
    for i, b in enumerate(base):
        if mask >> i & 1:
            src = [s + d * stride if s >= 0 and d != b else -1 for d in range(a) for s in src]
        else:
            src = src * a
        stride *= a
    return FnTable(a, f.arity, f.group, tuple(c[s] if s >= 0 else 0 for s in src))


def _taylor_terms_upto(
    f: FnTable, base: tuple[int, ...], c: list[int], k: int
) -> list[tuple[frozenset[int], FnTable]]:
    """The terms on at most k positions, by size ascending, then mask ascending."""
    terms = []
    for s in range(k + 1):
        for mask in sorted(sum(1 << i for i in I) for I in combinations(range(f.arity), s)):
            positions = frozenset(i for i in range(f.arity) if mask >> i & 1)
            terms.append((positions, _term_table(f, base, c, mask)))
    return terms


def taylor_terms(
    f: FnTable, base: Sequence[int] | None = None
) -> list[tuple[frozenset[int], FnTable]]:
    """One term table per position set I: x -> derivative of f on I at base,
    evaluated with parameter x.  The 2**arity terms sum to f exactly.

    Terms come by size of I ascending, then by bitmask of I ascending.  Raises
    ResourceError when the 2**arity * |A|**arity cells exceed MAX_CELLS.
    """
    _check_taylor_cells(f, 1 << f.arity)
    base = _check_base(f, base)
    return _taylor_terms_upto(f, base, _derivative_coefficients(f, base), f.arity)


def decomposability_witness(
    f: FnTable, k: int, base: Sequence[int] | None = None
) -> Witness | None:
    """First (positions, params) with a nonvanishing derivative on more than k
    positions, or None when f is k-decomposable.

    Search order: position-set size descending, then mask ascending, then
    parameter tuples in lexicographic order over ascending positions.
    Components of params outside the positions are 0, whatever the base.
    """
    _check_k(f, k)
    base = _check_base(f, base)
    return _first_witness(f, base, _derivative_coefficients(f, base), k)


def is_k_decomposable(f: FnTable, k: int, base: Sequence[int] | None = None) -> bool:
    """True when f is a sum of functions each with essential arity at most k."""
    return decomposability_witness(f, k, base) is None


def min_decomposition_arity(f: FnTable, base: Sequence[int] | None = None) -> int:
    """Largest position-set size with a nonvanishing derivative at the base (0 if none)."""
    base = _check_base(f, base)
    return _top_size(_support_sizes(f.a_size, base), _derivative_coefficients(f, base))


def decompose_via_taylor(
    f: FnTable, k: int, base: Sequence[int] | None = None
) -> list[tuple[frozenset[int], FnTable]]:
    """The (positions, term) pairs of the Taylor terms on at most k positions,
    in the order of taylor_terms; the terms sum to f exactly.

    Raises PreconditionError carrying the violating witness when f is not
    k-decomposable, and ResourceError when the terms would exceed
    MAX_CELLS.
    """
    _check_k(f, k)
    base = _check_base(f, base)
    c = _derivative_coefficients(f, base)
    witness = _first_witness(f, base, c, k)
    if witness is not None:
        positions, params = witness
        raise PreconditionError(
            f"not {k}-decomposable: derivative on positions "
            f"{sorted(positions)} with parameters {params} is nonzero",
            witness=witness,
        )
    _check_taylor_cells(f, sum(comb(f.arity, s) for s in range(k + 1)))
    return _taylor_terms_upto(f, base, c, k)
