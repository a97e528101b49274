"""Canonical decompositions of odd-support-determined functions over Boolean groups.

For a Boolean codomain (every factor Z2) and n = arity, |A| = alphabet size:

* odd case, n - |A| = 2t+1 > 0: f is determined by odd support iff it equals
  the double sum over i in [t+1, n//2] and position sets I of size n-2i of
  C(i-1, t) * phi(odd_support(x restricted to I)), for a unique phi on
  phi_domain(|A|, n).
* even case, n - |A| = 2t > 0: same first sum plus a second sum over sets K
  of size n-2k+1 (k in [t+1, (n+1)//2]) with coefficient C(2k-1, 2t), for a
  unique phi on the full power set satisfying phi(S) = phi(S symdiff {0}).
* uniform case ("fitilde"), n > max(|A|, 3): the coefficient-free sum over
  all sizes n-2, n-4, ... reproduces every determined f for a unique phi on
  phi_domain(|A|, n).

Every defining sum is symmetric in the positions, so it depends on x only
through its letter counts.  One kernel, ``_class_sum``, evaluates it for one
count vector by a parity DP over the letters; a reconstruction calls it once
per count class and broadcasts (``tables.by_letter_counts``).

phi is read, not solved.  The defining sum at representative_tuple(S, n),
which holds only letters of S, reads phi at S and at keys before S in
phi_domain's (size, mask) order (the even case's second sum at partners
T symdiff {0}, which come no later).  On every (|A|, n) the cell budget
admits, in each case, it reads phi at S alone: every probe system is the
identity, as tests/test_booldecomp.py checks on all 85 of them.  So the
value of f at the representative of S is phi(S), the unique phi is
extract_phi(f), and the uniform phi is unique as much as the odd and even
ones.  Each decomposer rebuilds the table from the phi it returns and
raises InternalConsistencyError unless that rebuild is f.
"""

from __future__ import annotations

from math import comb

from .errors import ArgumentError, InternalConsistencyError, PreconditionError, excerpt, excerpt_int
from .groups import Group, as_int
from .minors import pair_scan_limit
from .oddsupport import PhiMap, extract_phi, phi_domain, subset_mask
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
# phi recovery: extract_phi, checked by a rebuild
# ----------------------------------------------------------------------


def _read_phi(f: FnTable) -> PhiMap:
    """extract_phi(f), keyed on phi_domain(f.a_size, f.arity); a table that
    is not determined by odd support has no decomposition."""
    phi = extract_phi(f)
    if phi is None:
        raise PreconditionError("function is not determined by odd support")
    return phi


def _rebuilds(phi: PhiMap, rebuilt: FnTable, f: FnTable) -> PhiMap:
    """phi, once rebuilt, the table its defining sum gives, is checked to be f."""
    if rebuilt.values != f.values:
        raise InternalConsistencyError("reconstruction does not reproduce the input")
    return phi


def decompose_odd(f: FnTable) -> PhiMap:
    """The unique phi with reconstruct_odd(phi) == f, checked by that rebuild."""
    require_boolean(f.group)
    odd_case_shift(f.a_size, f.arity)
    phi = _read_phi(f)
    return _rebuilds(phi, reconstruct_odd(phi), f)


def decompose_even(f: FnTable) -> PhiMap:
    """The unique full paired phi with reconstruct_even(phi, f.arity) == f,
    checked by that rebuild."""
    require_boolean(f.group)
    even_case_shift(f.a_size, f.arity)
    phi = full_map_from_domain_entries(f.a_size, f.group, _read_phi(f).entries)
    return _rebuilds(phi, reconstruct_even(phi, f.arity), f)


def full_map_from_domain_entries(a_size: int, group: Group, entries) -> PhiMap:
    """Extend values given on phi_domain keys to the full power set via pairing.

    Above arity |A| every subset S is a key or the partner S symdiff {0} of
    one; a given entry wins over a partner, so a conflicting input still fails
    the pairing check.
    """
    return PhiMap(a_size, group, None, {**{S ^ {0}: v for S, v in entries.items()}, **entries})


def decompose_uniform(f: FnTable) -> PhiMap:
    """The unique phi with reconstruct_uniform(phi) == f, checked by that
    rebuild.

    It exists for every determined f in the regime n > max(|A|, 3), and it
    is extract_phi(f), unique there, because every admissible probe system
    is the identity (see the module docstring and uniform_system_rank).
    """
    require_boolean(f.group)
    require_uniform_regime(f.a_size, f.arity)
    phi = _read_phi(f)
    return _rebuilds(phi, reconstruct_uniform(phi), f)


def uniform_system_rank(a_size: int, n: int) -> tuple[int, int]:
    """(rank, unknowns) of the uniform probe system, in the regime of
    decompose_uniform only (PreconditionError outside it).

    Every admissible probe system is the identity, as the tests check, so
    the rank is the number of unknowns, one per phi_domain key, and the phi
    that extract_phi reads is the only one.
    """
    a_size, n = check_cells(a_size, n)
    require_uniform_regime(a_size, n)
    k = len(phi_domain(a_size, n))
    return k, k
