"""Canonical decompositions of odd-support-determined functions over Boolean groups.

For a Boolean codomain (every factor Z2) and n = arity, |A| = alphabet size:

* odd case, n - |A| = 2t+1 > 0: f is determined by odd support iff it equals
  the double sum over i in [t+1, n//2] and position sets I of size n-2i of
  C(i-1, t) * phi(odd_support(x restricted to I)), for a unique phi on
  phi_domain(|A|, n).
* even case, n - |A| = 2t > 0: same first sum plus a second sum over sets K
  of size n-2k+1 (k in [t+1, (n+1)//2]) with coefficient C(2k-1, 2t), for a
  unique phi on the full power set satisfying phi(S) = phi(S symdiff {0}).
* uniform case ("fitilde"): the coefficient-free sum over all sizes
  n-2, n-4, ... reproduces every determined f for some phi (existence only;
  free variables of the solve are pinned to 0).

phi recovery evaluates the defining equation at the canonical representative
tuple of each key and solves the resulting GF(2) system per cyclic factor.
The uniqueness proofs guarantee invertibility for the odd/even systems, so a
singular matrix is an internal-consistency failure, never a user error.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import xor

from .errors import (
    ArgumentError,
    InternalConsistencyError,
    PreconditionError,
)
from .groups import Group
from .oddsupport import (
    FULL,
    PNPRIME,
    PhiMap,
    extract_phi,
    phi_domain,
    representative_tuple,
    subset_mask,
)
from .tables import FnTable, axis_fold, check_cells, tuple_index


# ----------------------------------------------------------------------
# case structure: which subset sizes carry an odd coefficient
# ----------------------------------------------------------------------


def odd_case_shift(a_size: int, n: int) -> int:
    d = n - a_size
    if d <= 0 or d % 2 == 0:
        raise PreconditionError(
            "parity mismatch: n-|A| even" if d % 2 == 0 else "n-|A| must be positive"
        )
    return (d - 1) // 2


def even_case_shift(a_size: int, n: int) -> int:
    d = n - a_size
    if d <= 0 or d % 2 == 1:
        raise PreconditionError(
            "parity mismatch: n-|A| odd" if d % 2 == 1 else "n-|A| must be positive"
        )
    return d // 2


def first_sum_sizes(n: int, t: int) -> list[int]:
    """Sizes n-2i (i in [t+1, n//2]) whose coefficient C(i-1, t) is odd."""
    return [n - 2 * i for i in range(t + 1, n // 2 + 1) if comb(i - 1, t) & 1]


def second_sum_sizes(n: int, t: int) -> list[int]:
    """Sizes n-2k+1 (k in [t+1, (n+1)//2]) whose coefficient C(2k-1, 2t) is odd."""
    return [n - 2 * k + 1 for k in range(t + 1, (n + 1) // 2 + 1) if comb(2 * k - 1, 2 * t) & 1]


def uniform_sum_sizes(n: int) -> list[int]:
    """Sizes n-2i for i in [1, n//2]; every coefficient is 1."""
    return [n - 2 * i for i in range(1, n // 2 + 1)]


def _require_boolean(group: Group) -> None:
    if not group.is_boolean():
        raise PreconditionError(
            f"codomain {group.to_text()} is not Boolean (every factor must be Z2)"
        )


# ----------------------------------------------------------------------
# evaluation of the defining sums
# ----------------------------------------------------------------------


def _sum_table(phi: PhiMap, n: int, sizes: list[int]) -> FnTable:
    """XOR of phi(odd_support(x|_I)) over all I of the listed sizes, at every x.

    Boolean codes are bitmasks over the factors, so group addition is XOR.
    """
    a = phi.a_size
    check_cells(a, n)
    codes = phi.codes_by_mask
    bits = [1 << d for d in range(a)]
    zeros = [0] * a
    vals = [0] * a**n
    for s in sizes:
        for I in combinations(range(n), s):
            # the support mask of x restricted to I, at every x
            masks = axis_fold(a, [bits if p in I else zeros for p in range(n)], xor)
            terms = list(map(codes.__getitem__, masks))
            if None in terms:
                raise InternalConsistencyError(
                    "support value outside phi domain during reconstruction"
                )
            vals = list(map(xor, vals, terms))
    return FnTable(a, n, phi.group, tuple(vals))


def reconstruct_odd(phi: PhiMap) -> FnTable:
    """Evaluate the odd-case decomposition sum for a phi_domain-keyed map."""
    if phi.kind != PNPRIME:
        raise ArgumentError("odd-case reconstruction needs a pnprime phi map")
    _require_boolean(phi.group)
    n = phi.arity
    t = odd_case_shift(phi.a_size, n)
    return _sum_table(phi, n, first_sum_sizes(n, t))


def reconstruct_even(phi: PhiMap, n: int) -> FnTable:
    """Evaluate the even-case decomposition sum for a full paired map."""
    if phi.kind != FULL:
        raise ArgumentError("even-case reconstruction needs a full paired phi map")
    _require_boolean(phi.group)
    t = even_case_shift(phi.a_size, n)
    sizes = first_sum_sizes(n, t) + second_sum_sizes(n, t)
    return _sum_table(phi, n, sizes)


def reconstruct_uniform(phi: PhiMap) -> FnTable:
    """Evaluate the coefficient-free sum over sizes n-2, n-4, ..."""
    if phi.kind != PNPRIME:
        raise ArgumentError("uniform reconstruction needs a pnprime phi map")
    _require_boolean(phi.group)
    return _sum_table(phi, phi.arity, uniform_sum_sizes(phi.arity))


# ----------------------------------------------------------------------
# GF(2) elimination on bitset rows
# ----------------------------------------------------------------------


def gf2_solve(rows: list[int], n_cols: int, n_rhs: int):
    """Gauss-Jordan over GF(2); rhs bits ride in positions n_cols..n_cols+n_rhs-1.

    Returns (solutions, rank, consistent) where solutions[j] is the
    free-variables-zero solution bitmask for rhs column j.
    """
    work = list(rows)
    pivot_row_of: dict[int, int] = {}
    r = 0
    for col in range(n_cols):
        piv = None
        for idx in range(r, len(work)):
            if (work[idx] >> col) & 1:
                piv = idx
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        cur = work[r]
        for idx in range(len(work)):
            if idx != r and (work[idx] >> col) & 1:
                work[idx] ^= cur
        pivot_row_of[col] = r
        r += 1
    coeff_mask = (1 << n_cols) - 1
    consistent = all(w & coeff_mask or not (w >> n_cols) for w in work[r:])
    solutions = []
    for j in range(n_rhs):
        bitpos = n_cols + j
        mask = 0
        for col, ridx in pivot_row_of.items():
            if (work[ridx] >> bitpos) & 1:
                mask |= 1 << col
        solutions.append(mask)
    return solutions, r, consistent


# ----------------------------------------------------------------------
# phi recovery by probing at canonical representatives
# ----------------------------------------------------------------------


def _probe_rows(a_size: int, n: int, sizes: list[int], pairing: bool) -> list[int]:
    keys = phi_domain(a_size, n)
    col_of = {subset_mask(S): c for c, S in enumerate(keys)}
    rows = []
    for S in keys:
        rep = representative_tuple(S, n)
        row = 0
        for s in sizes:
            for I in combinations(range(n), s):
                m = 0
                for p in I:
                    m ^= 1 << rep[p]
                if m not in col_of:
                    if not pairing:
                        raise InternalConsistencyError(
                            "support value escaped the phi domain"
                        )
                    m ^= 1
                    if m not in col_of:
                        raise InternalConsistencyError(
                            "support value escaped the phi domain despite pairing"
                        )
                row ^= 1 << col_of[m]
        rows.append(row)
    return rows


def _solve_for_phi(f: FnTable, sizes: list[int], pairing: bool, require_unique: bool):
    """Solve the probe system for phi codes keyed on phi_domain(f.a_size, f.arity)."""
    a, n = f.a_size, f.arity
    keys = phi_domain(a, n)
    rows = _probe_rows(a, n, sizes, pairing)
    n_rhs = len(f.group.moduli)
    n_cols = len(keys)
    augmented = []
    for row, S in zip(rows, keys):
        psi = f.values[tuple_index(a, representative_tuple(S, n))]
        augmented.append(row | psi << n_cols)
    solutions, rank, consistent = gf2_solve(augmented, n_cols, n_rhs)
    if not consistent:
        raise InternalConsistencyError("phi probe system has no solution")
    if require_unique and rank != n_cols:
        raise InternalConsistencyError(
            f"phi probe system is singular (rank {rank} of {n_cols})"
        )
    decode = f.group.decode
    entries = {}
    for c, S in enumerate(keys):
        code = 0
        for j in range(n_rhs):
            code |= (solutions[j] >> c & 1) << j
        entries[S] = decode(code)
    return entries, rank


def _check_determined(f: FnTable) -> None:
    if extract_phi(f) is None:
        raise PreconditionError("function is not determined by odd support")


def decompose_odd(f: FnTable) -> PhiMap:
    """The unique phi with reconstruct_odd(phi) == f."""
    _require_boolean(f.group)
    t = odd_case_shift(f.a_size, f.arity)
    _check_determined(f)
    entries, _ = _solve_for_phi(f, first_sum_sizes(f.arity, t), pairing=False,
                                require_unique=True)
    return PhiMap(f.a_size, f.group, PNPRIME, f.arity, entries)


def decompose_even(f: FnTable) -> PhiMap:
    """The unique full paired phi with reconstruct_even(phi, f.arity) == f."""
    _require_boolean(f.group)
    t = even_case_shift(f.a_size, f.arity)
    _check_determined(f)
    sizes = first_sum_sizes(f.arity, t) + second_sum_sizes(f.arity, t)
    entries, _ = _solve_for_phi(f, sizes, pairing=True, require_unique=True)
    return full_map_from_domain_entries(f.a_size, f.group, entries)


def full_map_from_domain_entries(a_size: int, group: Group, entries) -> PhiMap:
    """Extend values given on phi_domain keys to the full power set via pairing."""
    full = {}
    for size in range(a_size + 1):
        for S in combinations(range(a_size), size):
            key = frozenset(S)
            full[key] = entries[key] if key in entries else entries[key ^ {0}]
    return PhiMap.full_paired(a_size, group, full)


def decompose_uniform(f: FnTable) -> PhiMap:
    """Some phi satisfying the coefficient-free sum (free variables pinned to 0).

    Existence is guaranteed for determined f in the regime n > max(|A|, 3);
    uniqueness is not claimed, see uniform_system_rank.
    """
    _require_boolean(f.group)
    n, a = f.arity, f.a_size
    if n <= max(a, 3):
        raise PreconditionError(
            f"uniform decomposition needs arity > max(|A|, 3) = {max(a, 3)}, got {n}"
        )
    _check_determined(f)
    entries, _ = _solve_for_phi(f, uniform_sum_sizes(n), pairing=False,
                                require_unique=False)
    phi = PhiMap(f.a_size, f.group, PNPRIME, f.arity, entries)
    if reconstruct_uniform(phi).values != f.values:
        raise InternalConsistencyError("uniform reconstruction mismatch after solve")
    return phi


def uniform_system_rank(a_size: int, n: int) -> tuple[int, int]:
    """(rank, unknowns) of the uniform probe system; rank < unknowns means the
    recovered phi is one of several valid choices."""
    check_cells(a_size, n)
    rows = _probe_rows(a_size, n, uniform_sum_sizes(n), pairing=False)
    _, rank, _ = gf2_solve(rows, len(rows), 0)
    return rank, len(rows)
