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

Every defining sum is symmetric in the positions, so it depends on x only
through its letter counts.  One kernel, ``_class_sum``, evaluates it for one
count vector by a parity DP over the letters; a reconstruction calls it once
per count class and broadcasts (``tables.by_letter_counts``).

phi recovery reads the same kernel at the canonical representative tuple of
each key, with one GF(2) column per key, and solves the resulting system per
cyclic factor against the values of extract_phi(f).  The uniqueness proofs
guarantee invertibility for the odd/even systems, so a singular matrix is an
internal-consistency failure, never a user error.  Each decomposer rebuilds
the table from the phi it returns and raises InternalConsistencyError unless
that rebuild is f.
"""

from __future__ import annotations

from math import comb

from .errors import ArgumentError, InternalConsistencyError, PreconditionError, excerpt, excerpt_int
from .groups import Group, as_int
from .minors import pair_scan_limit
from .oddsupport import (
    PhiMap,
    extract_phi,
    phi_domain,
    representative_tuple,
    subset_mask,
)
from .tables import FnTable, by_letter_counts, check_cells


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


def require_uniform_regime(a_size: int, n: int) -> None:
    """The regime n > max(|A|, 3) of decompose_uniform."""
    limit = pair_scan_limit(a_size)
    if n <= limit:
        raise PreconditionError(
            f"uniform decomposition needs arity > max(|A|, 3) = {excerpt_int(limit)}, "
            f"got {excerpt_int(n)}"
        )


def require_boolean(group: Group) -> None:
    if not group.is_boolean():
        raise PreconditionError(
            f"codomain {excerpt(group.to_text())} is not Boolean (every factor must be Z2)"
        )


# ----------------------------------------------------------------------
# evaluation of the defining sums
# ----------------------------------------------------------------------


def _class_sum(counts: list[int], sizes: list[int], codes: dict[int, int]) -> int:
    """XOR of codes[odd_support(x|_I)] over all I of the listed sizes, for any
    x whose letter d occurs counts[d] times.

    Taking j of the k positions that hold letter d puts d in the support when
    j is odd, in C(k, j) ways, and C(k, j) is odd iff j & k == j (Lucas).
    polys[mask] holds, as bit s, the parity of the number of sets I of size s
    over the letters done so far whose support is mask.
    """
    polys = {0: 1}
    for d, k in enumerate(counts):
        steps = [(j, (j & 1) << d) for j in range(k + 1) if j & k == j]
        grown: dict[int, int] = {}
        for mask, poly in polys.items():
            for j, bit in steps:
                grown[mask ^ bit] = grown.get(mask ^ bit, 0) ^ poly << j
        polys = grown
    size_bits = sum(1 << s for s in sizes)
    acc = 0
    for mask, poly in polys.items():
        if (poly & size_bits).bit_count() & 1:
            code = codes.get(mask)
            if code is None:
                raise InternalConsistencyError("support value outside the phi domain")
            acc ^= code
    return acc


def _sum_table(phi: PhiMap, n: int, sizes: list[int]) -> FnTable:
    """XOR of phi(odd_support(x|_I)) over all I of the listed sizes, at every x.

    Boolean codes are bitmasks over the factors, so group addition is XOR.
    """
    encode = phi.group.encode
    codes = {subset_mask(S): encode(v) for S, v in phi.entries.items()}
    vals = by_letter_counts(phi.a_size, n, lambda counts: _class_sum(counts, sizes, codes))
    return FnTable(phi.a_size, n, phi.group, vals)


def reconstruct_odd(phi: PhiMap) -> FnTable:
    """Evaluate the odd-case decomposition sum for a phi_domain-keyed map."""
    if phi.arity is None:
        raise ArgumentError("odd-case reconstruction needs a pnprime phi map")
    require_boolean(phi.group)
    n = phi.arity
    t = odd_case_shift(phi.a_size, n)
    return _sum_table(phi, n, first_sum_sizes(n, t))


def reconstruct_even(phi: PhiMap, n: int) -> FnTable:
    """Evaluate the even-case decomposition sum for a full paired map."""
    if phi.arity is not None:
        raise ArgumentError("even-case reconstruction needs a full paired phi map")
    require_boolean(phi.group)
    n = as_int("arity", n)
    t = even_case_shift(phi.a_size, n)
    sizes = first_sum_sizes(n, t) + second_sum_sizes(n, t)
    return _sum_table(phi, n, sizes)


def reconstruct_uniform(phi: PhiMap) -> FnTable:
    """Evaluate the coefficient-free sum over sizes n-2, n-4, ..."""
    if phi.arity is None:
        raise ArgumentError("uniform reconstruction needs a pnprime phi map")
    require_boolean(phi.group)
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


def _probe_rows(a_size: int, n: int, sizes: list[int]) -> list[int]:
    """The defining sum at the representative tuple of each phi_domain key,
    as a bitset over the keys: column c stands for key c and for its partner,
    key c symdiff {0}.

    Every case may share the partner's column, so no flag asks for it: an I
    whose size has the parity of n reaches only phi_domain keys, so the odd
    and uniform sums never read a partner; only the even case's second sum
    does.
    """
    keys = phi_domain(a_size, n)
    units = {subset_mask(S) ^ flip: 1 << c for c, S in enumerate(keys) for flip in (0, 1)}
    rows = []
    for S in keys:
        rep = representative_tuple(S, n)
        rows.append(_class_sum([rep.count(d) for d in range(a_size)], sizes, units))
    return rows


def _solve_for_phi(f: FnTable, sizes: list[int], require_unique: bool):
    """Solve the probe system for phi entries keyed on phi_domain(f.a_size, f.arity)."""
    given = extract_phi(f)
    if given is None:
        raise PreconditionError("function is not determined by odd support")
    a, n = f.a_size, f.arity
    keys = phi_domain(a, n)
    rows = _probe_rows(a, n, sizes)
    n_rhs = len(f.group.moduli)
    n_cols = len(keys)
    encode = f.group.encode
    augmented = [row | encode(given.entries[S]) << n_cols for row, S in zip(rows, keys)]
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
    return entries


def _rebuilds(phi: PhiMap, rebuilt: FnTable, f: FnTable) -> PhiMap:
    """phi, once rebuilt, the table its defining sum gives, is checked to be f."""
    if rebuilt.values != f.values:
        raise InternalConsistencyError("reconstruction does not reproduce the input")
    return phi


def decompose_odd(f: FnTable) -> PhiMap:
    """The unique phi with reconstruct_odd(phi) == f, checked by that rebuild."""
    require_boolean(f.group)
    t = odd_case_shift(f.a_size, f.arity)
    entries = _solve_for_phi(f, first_sum_sizes(f.arity, t), require_unique=True)
    phi = PhiMap(f.a_size, f.group, f.arity, entries)
    return _rebuilds(phi, reconstruct_odd(phi), f)


def decompose_even(f: FnTable) -> PhiMap:
    """The unique full paired phi with reconstruct_even(phi, f.arity) == f,
    checked by that rebuild."""
    require_boolean(f.group)
    t = even_case_shift(f.a_size, f.arity)
    sizes = first_sum_sizes(f.arity, t) + second_sum_sizes(f.arity, t)
    entries = _solve_for_phi(f, sizes, require_unique=True)
    phi = full_map_from_domain_entries(f.a_size, f.group, entries)
    return _rebuilds(phi, reconstruct_even(phi, f.arity), f)


def full_map_from_domain_entries(a_size: int, group: Group, entries) -> PhiMap:
    """Extend values given on phi_domain keys to the full power set via pairing.

    Above arity |A| every subset S is a key or the partner S symdiff {0} of
    one; a given entry wins over a partner, so a conflicting input still fails
    the pairing check.
    """
    return PhiMap(a_size, group, None, {**{S ^ {0}: v for S, v in entries.items()}, **entries})


def decompose_uniform(f: FnTable) -> PhiMap:
    """Some phi satisfying the coefficient-free sum (free variables pinned to
    0), checked by reconstruct_uniform.

    Existence is guaranteed for determined f in the regime n > max(|A|, 3);
    uniqueness is not claimed, see uniform_system_rank.
    """
    require_boolean(f.group)
    require_uniform_regime(f.a_size, f.arity)
    entries = _solve_for_phi(f, uniform_sum_sizes(f.arity), require_unique=False)
    phi = PhiMap(f.a_size, f.group, f.arity, entries)
    return _rebuilds(phi, reconstruct_uniform(phi), f)


def uniform_system_rank(a_size: int, n: int) -> tuple[int, int]:
    """(rank, unknowns) of the uniform probe system; rank < unknowns means the
    recovered phi is one of several valid choices."""
    check_cells(a_size, n)
    rows = _probe_rows(a_size, n, uniform_sum_sizes(n))
    _, rank, _ = gf2_solve(rows, len(rows), 0)
    return rank, len(rows)
