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

phi recovery reads the same kernel at the representative tuple of each key,
with one column per key, and takes the right-hand side from extract_phi(f).
The row of key S is read at representative_tuple(S, n), which holds only
letters of S, so every support it meets is a subset T of S: S itself or a
key before it in phi_domain's (size, mask) order.  The partner T symdiff {0}
that the even case's second sum reads is no larger than S and, at equal
size, has the smaller mask, so it is S or comes before it too.  The system
is therefore lower-triangular, and its diagonal is 1 on every (|A|, n) the
cell budget admits in each case (tested exhaustively).  Forward substitution
over Boolean codes, which add by XOR, solves it, and the solution is unique:
in the uniform case as much as in the odd and even ones.  A row without its
own bit is an internal-consistency failure, never a user error.  Each
decomposer rebuilds the table from the phi it returns and raises
InternalConsistencyError unless that rebuild is f.
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


def _unit_lower_rows(a_size: int, n: int, sizes: list[int]) -> list[int]:
    """The probe rows, each checked to be its own key's bit plus bits of
    earlier keys (row >> c == 1)."""
    rows = _probe_rows(a_size, n, sizes)
    for c, row in enumerate(rows):
        if row >> c != 1:
            raise InternalConsistencyError(
                f"phi probe system is not unit lower-triangular at key {c} of {len(rows)}"
            )
    return rows


def _solve_for_phi(f: FnTable, sizes: list[int]):
    """phi entries keyed on phi_domain(f.a_size, f.arity), by forward
    substitution: the code of key c is the code extract_phi(f) gives it,
    XOR the codes of the earlier keys its row selects."""
    given = extract_phi(f)
    if given is None:
        raise PreconditionError("function is not determined by odd support")
    keys = phi_domain(f.a_size, f.arity)
    encode, decode = f.group.encode, f.group.decode
    codes: list[int] = []
    for row, S in zip(_unit_lower_rows(f.a_size, f.arity, sizes), keys):
        code = encode(given.entries[S])
        for j, earlier in enumerate(codes):
            if row >> j & 1:
                code ^= earlier
        codes.append(code)
    return {S: decode(code) for S, code in zip(keys, codes)}


def _rebuilds(phi: PhiMap, rebuilt: FnTable, f: FnTable) -> PhiMap:
    """phi, once rebuilt, the table its defining sum gives, is checked to be f."""
    if rebuilt.values != f.values:
        raise InternalConsistencyError("reconstruction does not reproduce the input")
    return phi


def decompose_odd(f: FnTable) -> PhiMap:
    """The unique phi with reconstruct_odd(phi) == f, checked by that rebuild."""
    require_boolean(f.group)
    t = odd_case_shift(f.a_size, f.arity)
    entries = _solve_for_phi(f, first_sum_sizes(f.arity, t))
    phi = PhiMap(f.a_size, f.group, f.arity, entries)
    return _rebuilds(phi, reconstruct_odd(phi), f)


def decompose_even(f: FnTable) -> PhiMap:
    """The unique full paired phi with reconstruct_even(phi, f.arity) == f,
    checked by that rebuild."""
    require_boolean(f.group)
    t = even_case_shift(f.a_size, f.arity)
    sizes = first_sum_sizes(f.arity, t) + second_sum_sizes(f.arity, t)
    entries = _solve_for_phi(f, sizes)
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
    """The unique phi with reconstruct_uniform(phi) == f, checked by that
    rebuild.

    It exists for every determined f in the regime n > max(|A|, 3), and it
    is unique there because the probe system is unit lower-triangular (see
    uniform_system_rank).
    """
    require_boolean(f.group)
    require_uniform_regime(f.a_size, f.arity)
    entries = _solve_for_phi(f, uniform_sum_sizes(f.arity))
    phi = PhiMap(f.a_size, f.group, f.arity, entries)
    return _rebuilds(phi, reconstruct_uniform(phi), f)


def uniform_system_rank(a_size: int, n: int) -> tuple[int, int]:
    """(rank, unknowns) of the uniform probe system, in the regime of
    decompose_uniform only (PreconditionError outside it).

    The system is checked to be unit lower-triangular, so its rank is its
    number of unknowns, one per phi_domain key, and the recovered phi is
    the only one.
    """
    a_size, n = check_cells(a_size, n)
    require_uniform_regime(a_size, n)
    k = len(_unit_lower_rows(a_size, n, uniform_sum_sizes(n)))
    return k, k
